"""Fine-grain authorization for simulated grid resource management.

The package combines a small RSL job-description parser, a policy DSL
for resource-owner and VO documents, a decision point with pull and
push (capability token) modes, and a simulated gatekeeper/job manager
with dynamic accounts, sandbox limits and allocation accounting.
"""

from .credential import (
    CapabilityClaims,
    CapabilityToken,
    GridCredential,
    GridMapFile,
    load_credential,
    load_gridmap,
    load_token,
    format_token,
    sign_capability,
    verify_capability,
)
from .enforce import (
    AllocationLedger,
    DynamicAccountPool,
    SandboxSpec,
    record_usage,
)
from .jobmgr import Event, Job, JobManager, JobState, SimProfile
from .pdp import (
    AuthzQuery,
    Decision,
    PolicySourceSet,
    decide,
    decide_push,
    derive_capability,
    explain,
)
from .policy import PolicyDocument, applicable_blocks, format_policy, parse_policy
from .rsl import JobAction, RslRequest, parse_rsl

__all__ = [
    "AllocationLedger",
    "AuthzQuery",
    "CapabilityClaims",
    "CapabilityToken",
    "Decision",
    "DynamicAccountPool",
    "Event",
    "GridCredential",
    "GridMapFile",
    "Job",
    "JobAction",
    "JobManager",
    "JobState",
    "PolicyDocument",
    "PolicySourceSet",
    "RslRequest",
    "SandboxSpec",
    "SimProfile",
    "applicable_blocks",
    "decide",
    "decide_push",
    "derive_capability",
    "explain",
    "format_policy",
    "format_token",
    "load_credential",
    "load_gridmap",
    "load_token",
    "parse_policy",
    "parse_rsl",
    "record_usage",
    "sign_capability",
    "verify_capability",
]

__version__ = "0.1.0"
