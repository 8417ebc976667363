"""CLI integration tests: every subcommand and every exit-code path."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridauth import cli
from gridauth.cli import STATE_VERSION, StateFileError, _load_state, _parser, _upgrade, main
from gridauth.credential import GridMapFile, load_credential
from gridauth.enforce import DynamicAccountPool, QuotaExceededError
from gridauth.jobmgr import (
    DeniedByPolicyError,
    IllegalTransitionError,
    JOB_FIELDS,
    JobManager,
    NoAccountsAvailableError,
    SimProfile,
    UnknownJobError,
)
from gridauth.policy import parse_policy
from gridauth.rsl import JobAction, parse_rsl

import state_slots

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
STATE_V1 = Path(__file__).resolve().parent / "data" / "state-v1"
STATE_V2 = Path(__file__).resolve().parent / "data" / "state-v2"
STATE_V3 = Path(__file__).resolve().parent / "data" / "state-v3"
STATE_V4 = Path(__file__).resolve().parent / "data" / "state-v4"
STATE_V5 = Path(__file__).resolve().parent / "data" / "state-v5"
STATE_V6 = Path(__file__).resolve().parent / "data" / "state-v6"
STATE_V7 = Path(__file__).resolve().parent / "data" / "state-v7"
STATE_V8 = Path(__file__).resolve().parent / "data" / "state-v8"
STATE_V9 = Path(__file__).resolve().parent / "data" / "state-v9"

SITE_POL = """\
policy "site" source resource {
  trust vo "fusion";
  trust vo "astro";
  subject any { allow action start, suspend, resume, cancel, status, set_priority; }
}
"""

FUSION_POL = """\
policy "fusion" source vo {
  allocation 1000 cpu-seconds;
  member-quota "/O=Grid/CN=alice" 600 cpu-seconds;
  subject group "members" { allow action start; }
}
"""

STRICT_VO_POL = """\
policy "fusion" source vo {
  subject group "members" {
    allow action start;
    attr executable in {"/opt/vo/apps/transp"};
  }
}
"""

ALICE_CRED = """\
subject: /O=Grid/CN=alice
vo: fusion
groups: members
expiry: 1900000000
"""

BOB_CRED = """\
subject: /O=Grid/CN=bob
vo: fusion
groups: members
expiry: 1900000000
"""

RSL = '&(executable="/opt/vo/apps/transp")(count=1)(maxcputime=600)\n'
KEY_HEX = "ab" * 32


@pytest.fixture
def site(tmp_path):
    files = {
        "site.pol": SITE_POL,
        "fusion.pol": FUSION_POL,
        "strict.pol": STRICT_VO_POL,
        "alice.cred": ALICE_CRED,
        "bob.cred": BOB_CRED,
        "job.rsl": RSL,
        "bad.rsl": "&(count=1)(count=2)\n",
        "gridmap": '"/O=Grid/CN=alice" alice_l\n"/O=Grid/CN=bob" bob_l\n',
    }
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    return tmp_path


def _p(site, name):
    return str(site / name)


def _at(field: str) -> int:
    """Where a job row, as version 8 stores a job, holds ``field``."""
    return JOB_FIELDS.index(field)


def _with(row: list, field: str, value) -> list:
    """A copy of a job row with ``field`` set to ``value``."""
    return [value if name == field else item for name, item in zip(JOB_FIELDS, row)]


def _as_row(job: dict) -> list:
    """A job map of versions 1-7, in the current form, as version 8 stores it."""
    pairs = {"profile": ("runtime", "memory_peak"), "sandbox": ("max_cpu", "max_memory")}
    return [[job[field][key] for key in pairs[field]] if field in pairs else job[field]
            for field in JOB_FIELDS]


def _submit_args(site, cred="alice.cred", rsl="job.rsl", runtime="200"):
    return [
        "submit",
        "--state", _p(site, "state.json"),
        "--resource-policy", _p(site, "site.pol"),
        "--vo-policy", _p(site, "fusion.pol"),
        "--cred", _p(site, cred),
        "--rsl", _p(site, rsl),
        "--map", _p(site, "gridmap"),
        "--runtime", runtime,
    ]


def _manage_args(site, job, action, cred="alice.cred"):
    return [
        "manage",
        "--state", _p(site, "state.json"),
        "--resource-policy", _p(site, "site.pol"),
        "--vo-policy", _p(site, "fusion.pol"),
        "--cred", _p(site, cred),
        "--job", job,
        "--action", action,
    ]


@pytest.mark.parametrize("argv, code", [
    (["tick", "--help"], 0),
    (["tick", "--state", "s", "--dt", "soon"], 2),
    (["bogus"], 2),
])
def test_one_parser_serves_every_call(capsys, argv, code):
    printed = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1] and printed[0] != ("", "")
    assert _parser() is _parser()


def test_no_command_prints_help_and_exits_two(capsys):
    assert main([]) == 2
    assert capsys.readouterr().out.startswith("usage: gridauth ")


class TestCheck:
    @pytest.mark.parametrize("flags, message", [
        (["--cap", "alice.cap", "--rsl", "job.rsl"],
         "use either --vo-policy (pull) or --cap (push), not both"),
        ([], "start checks need --rsl"),
    ], ids=["pull-and-push", "start-without-rsl"])
    def test_conflicting_or_missing_flag_exits_two(self, site, capsys, flags, message):
        assert main([
            "check",
            "--resource-policy", _p(site, "site.pol"),
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "alice.cred"),
            "--action", "start",
            *(flag if flag.startswith("--") else _p(site, flag) for flag in flags),
        ]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_permit_exits_zero(self, site, capsys):
        code = main([
            "check",
            "--resource-policy", _p(site, "site.pol"),
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "alice.cred"),
            "--rsl", _p(site, "job.rsl"),
            "--action", "start",
        ])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "permit"

    def test_deny_exits_one_and_explains(self, site, capsys):
        (site / "bad_exe.rsl").write_text('&(executable="/bin/sh")(count=1)\n')
        code = main([
            "check",
            "--resource-policy", _p(site, "site.pol"),
            "--vo-policy", _p(site, "strict.pol"),
            "--cred", _p(site, "alice.cred"),
            "--rsl", _p(site, "bad_exe.rsl"),
            "--action", "start",
            "--explain",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines()[0] == "deny"
        assert 'attr executable: value "/bin/sh" fails in {"/opt/vo/apps/transp"}' in out

    def test_malformed_rsl_exits_two(self, site, capsys):
        code = main([
            "check",
            "--resource-policy", _p(site, "site.pol"),
            "--cred", _p(site, "alice.cred"),
            "--rsl", _p(site, "bad.rsl"),
            "--action", "start",
        ])
        assert code == 2
        assert "duplicate attribute" in capsys.readouterr().err

    def test_owner_management_check(self, site, capsys):
        code = main([
            "check",
            "--resource-policy", _p(site, "site.pol"),
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "alice.cred"),
            "--action", "status",
            "--owner", "/O=Grid/CN=alice",
            "--explain",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "builtin-owner: permit" in out


    def test_vo_document_is_chosen_by_the_credentials_vo(self, site, capsys):
        # a fusion document does not decide for an astro credential, in
        # check as in submit
        (site / "astro.cred").write_text(ALICE_CRED.replace("vo: fusion", "vo: astro"))
        code = main([
            "check",
            "--resource-policy", _p(site, "site.pol"),
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "astro.cred"),
            "--rsl", _p(site, "job.rsl"),
            "--action", "start",
            "--explain",
        ])
        assert code == 1
        assert capsys.readouterr().out.splitlines() == [
            "deny",
            "resource/block[0]: permit",
            "vo: deny — no policy document for vo 'astro'",
        ]
        assert main(_submit_args(site, cred="astro.cred")) == 1
        assert capsys.readouterr().err == (
            "denied: denied by policy: no policy document for vo 'astro'\n"
        )
        assert not (site / "state.json").exists()

    def test_vo_policy_of_another_source_exits_two(self, site, capsys):
        argv = [
            "check",
            "--resource-policy", _p(site, "site.pol"),
            "--vo-policy", _p(site, "site.pol"),
            "--cred", _p(site, "alice.cred"),
            "--rsl", _p(site, "job.rsl"),
            "--action", "start",
        ]
        submit = _submit_args(site)
        submit[submit.index("--vo-policy") + 1] = _p(site, "site.pol")
        for command in (argv, submit):
            assert main(command) == 2
            assert capsys.readouterr().err == "error: policy 'site' is not a vo document\n"

    def test_two_vo_documents_of_one_name_exit_two(self, site, capsys):
        """The last one read used to win silently, with its blocks and terms."""
        assert main(_submit_args(site, rsl="job.rsl")) == 0
        capsys.readouterr()
        two = ["--vo-policy", _p(site, "fusion.pol"), "--vo-policy", _p(site, "strict.pol")]
        check = ["check", "--resource-policy", _p(site, "site.pol"), *two,
                 "--cred", _p(site, "alice.cred"), "--rsl", _p(site, "job.rsl"), "--action", "start"]
        submit = _submit_args(site)
        submit[submit.index("--vo-policy"):submit.index("--vo-policy") + 2] = two
        manage = _manage_args(site, "j1", "status")
        manage[manage.index("--vo-policy"):manage.index("--vo-policy") + 2] = two
        before = (site / "state.json").read_bytes()
        for command in (check, submit, manage):
            assert main(command) == 2
            assert capsys.readouterr() == ("", "error: two vo documents are named 'fusion'\n")
        assert (site / "state.json").read_bytes() == before

    @pytest.mark.parametrize("key", [KEY_HEX, "cd" * 32], ids=["genuine-key", "wrong-key"])
    def test_pushed_check_with_a_vo_document_as_resource_policy_exits_two(self, site, capsys, key):
        # refused before any token check, so the key makes no difference,
        # and submit refuses the same file as well
        assert main([
            "issue-cap",
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "alice.cred"),
            "--vo-key", f"fusion={KEY_HEX}",
            "--expiry", "1000000",
            "--cap", _p(site, "alice.cap"),
        ]) == 0
        push = ["--cap", _p(site, "alice.cap"), "--vo-key", f"fusion={key}"]
        code = main([
            "check",
            "--resource-policy", _p(site, "fusion.pol"),
            *push,
            "--cred", _p(site, "alice.cred"),
            "--rsl", _p(site, "job.rsl"),
            "--action", "start",
        ])
        assert code == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: resource slot needs a resource-source document\n")
        submit = _submit_args(site)
        submit[submit.index("--resource-policy") + 1] = _p(site, "fusion.pol")
        submit[submit.index("--vo-policy"):submit.index("--vo-policy") + 2] = push
        assert main(submit) == 2
        assert capsys.readouterr() == ("", err)
        assert not (site / "state.json").exists()

    def test_a_vo_document_as_resource_policy_of_a_site_exits_two(self, site, capsys):
        # restoring a site under it is bad input, as for a new site, not
        # bad state: the message is check's and the files stay as they are
        assert main(_submit_args(site)) == 0
        capsys.readouterr()
        files = {path.name: path.read_bytes() for path in site.iterdir()}
        submit, manage = _submit_args(site), _manage_args(site, "j1", "cancel")
        for command in (submit, manage):
            command[command.index("--resource-policy") + 1] = _p(site, "fusion.pol")
            assert main(command) == 2
            assert capsys.readouterr() == (
                "", "error: resource slot needs a resource-source document\n"
            )
        assert {path.name: path.read_bytes() for path in site.iterdir()} == files

    def test_a_credential_is_denied_from_its_expiry_on(self, site, capsys):
        argv = [
            "check",
            "--resource-policy", _p(site, "site.pol"),
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "alice.cred"),
            "--rsl", _p(site, "job.rsl"),
            "--action", "start",
            "--explain",
        ]
        assert main([*argv, "--now", "1899999999"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "permit"
        for now in ("1900000000", "1900000001"):
            assert main([*argv, "--now", now]) == 1
            assert capsys.readouterr().out.splitlines() == [
                "deny", "credential: deny — credential expired at 1900000000",
            ]

    def test_check_takes_every_vo_document(self, site, capsys):
        # each credential is decided under its own VO's document, wherever
        # it stands among the --vo-policy files
        (site / "astro.pol").write_text(FUSION_POL.replace('"fusion"', '"astro"'))
        (site / "astro.cred").write_text(ALICE_CRED.replace("vo: fusion", "vo: astro"))
        vo_policies = ["--vo-policy", _p(site, "strict.pol"), "--vo-policy", _p(site, "astro.pol")]
        (site / "other.rsl").write_text('&(executable="/bin/sh")(count=1)(maxcputime=10)\n')
        for cred, rsl, code, last in [
            ("alice.cred", "job.rsl", 0, "vo/block[0]: permit"),
            ("alice.cred", "other.rsl", 1, "vo/block[0]: deny — attr executable: value "
             '"/bin/sh" fails in {"/opt/vo/apps/transp"}'),
            ("astro.cred", "other.rsl", 0, "vo/block[0]: permit"),
        ]:
            assert main([
                "check", "--resource-policy", _p(site, "site.pol"), *vo_policies,
                "--cred", _p(site, cred), "--rsl", _p(site, rsl), "--action", "start",
                "--explain",
            ]) == code
            assert capsys.readouterr().out.splitlines()[-1] == last


class TestSubmitManageTickLedger:
    def test_full_cycle(self, site, capsys):
        assert main(_submit_args(site)) == 0
        assert capsys.readouterr().out == "job=j1 state=pending reserved=600\n"

        assert main(["tick", "--state", _p(site, "state.json"), "--dt", "3"]) == 0
        out = capsys.readouterr().out
        assert "event=activate" in out

        code = main([
            "manage",
            "--state", _p(site, "state.json"),
            "--resource-policy", _p(site, "site.pol"),
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "alice.cred"),
            "--job", "j1",
            "--action", "status",
        ])
        assert code == 0
        assert capsys.readouterr().out == (
            "job=j1 state=active owner=/O=Grid/CN=alice "
            "consumed=3 reserved=600 priority=0\n"
        )

        code = main([
            "manage",
            "--state", _p(site, "state.json"),
            "--resource-policy", _p(site, "site.pol"),
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "alice.cred"),
            "--job", "j1",
            "--action", "cancel",
        ])
        assert code == 0
        assert capsys.readouterr().out == "job=j1 state=canceled\n"

        assert main(["ledger", "--state", _p(site, "state.json")]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "vo=fusion used=3/1000"

    def test_edited_vo_policy_terms_reach_the_ledger(self, site, capsys):
        # the next write that loads the edited document stores its terms
        assert main(_submit_args(site)) == 0
        assert main(["tick", "--state", _p(site, "state.json"), "--dt", "3"]) == 0
        (site / "fusion.pol").write_text(FUSION_POL.replace("1000", "800").replace("600", "700"))
        assert main(_manage_args(site, "j1", "cancel")) == 0
        capsys.readouterr()
        assert main(["ledger", "--state", _p(site, "state.json")]) == 0
        assert capsys.readouterr().out == (
            "vo=fusion used=3/800\nmember=/O=Grid/CN=alice used=3/700\n"
        )

    def test_granted_admin_suspends_via_cli(self, site, capsys):
        (site / "mgmt.pol").write_text(
            'policy "fusion" source vo {\n'
            '  subject group "members" { allow action start; }\n'
            '  subject group "admins" { allow action suspend on jobtag "fusion-prod"; }\n'
            "}\n"
        )
        (site / "carol.cred").write_text(
            "subject: /O=Grid/CN=carol\nvo: fusion\ngroups: admins\nexpiry: 1900000000\n"
        )
        (site / "tagged.rsl").write_text(
            '&(executable="/opt/vo/apps/transp")(jobtag="fusion-prod")\n'
        )
        args = _submit_args(site, rsl="tagged.rsl")
        args[args.index(_p(site, "fusion.pol"))] = _p(site, "mgmt.pol")
        assert main(args) == 0
        assert main(["tick", "--state", _p(site, "state.json"), "--dt", "1"]) == 0
        capsys.readouterr()
        code = main([
            "manage",
            "--state", _p(site, "state.json"),
            "--resource-policy", _p(site, "site.pol"),
            "--vo-policy", _p(site, "mgmt.pol"),
            "--cred", _p(site, "carol.cred"),
            "--job", "j1",
            "--action", "suspend",
        ])
        assert code == 0
        assert capsys.readouterr().out == "job=j1 state=suspended\n"

    def test_denied_submission_exits_one(self, site, capsys):
        (site / "bad_exe.rsl").write_text('&(executable="/bin/sh")(maxcputime=5)\n')
        args = _submit_args(site, rsl="bad_exe.rsl")
        args[args.index(_p(site, "fusion.pol"))] = _p(site, "strict.pol")
        assert main(args) == 1
        assert "denied" in capsys.readouterr().err
        assert not (site / "state.json").exists()
        assert not (site / "state.json.journal").exists()

    def test_quota_exceeded_exits_one(self, site, capsys):
        assert main(_submit_args(site)) == 0
        capsys.readouterr()
        (site / "big.rsl").write_text(
            '&(executable="/opt/vo/apps/transp")(count=1)(maxcputime=500)\n'
        )
        assert main(_submit_args(site, cred="bob.cred", rsl="big.rsl")) == 1
        assert "allocation exceeded" in capsys.readouterr().err

    def test_illegal_transition_exits_one(self, site, capsys):
        assert main(_submit_args(site)) == 0
        capsys.readouterr()
        code = main([
            "manage",
            "--state", _p(site, "state.json"),
            "--resource-policy", _p(site, "site.pol"),
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "alice.cred"),
            "--job", "j1",
            "--action", "resume",
        ])
        assert code == 1

    def test_unknown_job_exits_two(self, site, capsys):
        assert main(_submit_args(site)) == 0
        capsys.readouterr()
        code = main([
            "manage",
            "--state", _p(site, "state.json"),
            "--resource-policy", _p(site, "site.pol"),
            "--cred", _p(site, "alice.cred"),
            "--job", "j99",
            "--action", "status",
        ])
        assert code == 2

    def test_missing_file_exits_two(self, site, capsys):
        args = _submit_args(site)
        args[args.index(_p(site, "job.rsl"))] = _p(site, "nope.rsl")
        assert main(args) == 2

    @pytest.mark.parametrize("name", ["Root", "dyn 01", "1st", "a/b"])
    def test_a_pool_account_the_gridmap_would_refuse_exits_two(self, site, capsys, name):
        # unmapped, alice would lease the first free account
        args = _submit_args(site)[:-4] + ["--runtime", "200", "--pool", f"{name},dyn01"]
        assert "--map" not in args
        before = sorted(site.iterdir())
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: --pool: bad account name {name!r}\n"
        assert sorted(site.iterdir()) == before
        # the grid-mapfile refuses the same name
        (site / "gridmap").write_text(f'"/O=Grid/CN=alice" {name}\n')
        assert main(_submit_args(site)) == 2
        assert capsys.readouterr().err.startswith("error: line 1: ")
        assert not (site / "state.json").exists()

    @pytest.mark.parametrize(
        "name, what",
        [("site.pol", "policy"), ("alice.cred", "credential"), ("job.rsl", "rsl")],
    )
    def test_non_utf8_input_exits_two_and_names_the_file(self, site, capsys, name, what):
        (site / name).write_bytes(b"\xff" + (site / name).read_bytes())
        assert main(_submit_args(site)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {what} {_p(site, name)!r}: 'utf-8' codec")

    def test_non_utf8_state_exits_three(self, site, capsys):
        state = site / "state.json"
        state.write_bytes(b"\xff\xfe{}")
        assert main(["ledger", "--state", str(state)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"state error: cannot read state file {str(state)!r}: 'utf-8'")

    def test_corrupt_state_exits_three(self, site, capsys):
        (site / "state.json").write_text("{ not json")
        assert main(_submit_args(site)) == 3
        (site / "state.json").write_text('{"format": "something-else"}')
        assert main(["ledger", "--state", _p(site, "state.json")]) == 3

    def test_truncated_state_exits_three(self, site, capsys):
        state = site / "state.json"
        state.write_text('{"format": "gridauth-state", "version": 1, "engine": {}}')
        assert main(["ledger", "--state", str(state)]) == 3
        assert "incomplete or malformed: KeyError" in capsys.readouterr().err

        state.unlink()
        assert main(_submit_args(site)) == 0
        data = state_slots.read(state)
        del data["engine"]["jobs"][0][_at("owner")]
        state_slots.write(state, json.dumps(data))
        capsys.readouterr()
        assert main(["tick", "--state", str(state), "--dt", "1"]) == 3
        assert "ValueError: stored job ['j1', 'fusion', " in capsys.readouterr().err

        # a version-7 job is a map of named fields, so the missing one is named
        for path in STATE_V7.iterdir():
            shutil.copy(path, site / path.name)
        data = state_slots.read(state)
        del data["engine"]["jobs"][0]["owner"]
        state_slots.write(state, json.dumps(data))
        assert main(["tick", "--state", str(state), "--dt", "1"]) == 3
        assert "KeyError: 'owner'" in capsys.readouterr().err

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-string digit limit"
    )
    def test_oversized_integer_in_state_exits_three(self, site, capsys):
        assert main(_submit_args(site)) == 0
        state = site / "state.json"
        text = state_slots.read_text(state)
        assert '"clock":0,' in text
        # past the limit on digits that int() converts, json.load raises ValueError
        state_slots.write(state, text.replace('"clock":0,', '"clock":' + "9" * 5000 + ","))
        before = _files(site)
        capsys.readouterr()
        for argv in (
            ["ledger", "--state", str(state)],
            ["tick", "--state", str(state), "--dt", "1"],
            _submit_args(site),
        ):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"state error: cannot read state file {str(state)!r}: ")
        assert _files(site) == before

    # True and 1.0 equal 1, a readable version, but are no integer version
    @pytest.mark.parametrize("version", [0, STATE_VERSION + 1, True, 1.0])
    def test_unsupported_state_version_exits_three(self, site, capsys, version):
        assert main(_submit_args(site)) == 0
        state = site / "state.json"
        data = state_slots.read(state)
        data["version"] = version
        state_slots.write(state, json.dumps(data))
        capsys.readouterr()
        before = _files(site)
        for argv in (["ledger", "--state", str(state)],
                     ["tick", "--state", str(state), "--dt", "1"]):
            assert main(argv) == 3
            assert capsys.readouterr().err == (
                f"state error: state file version {version!r} unsupported\n"
            )
        assert _files(site) == before

    @pytest.mark.parametrize("text", [
        '{"format": "gridauth-state", "version": 3}',
        '{"format": "gridauth-state", "version": 4, "journal_bytes": 0}',
        '{"format": "gridauth-state", "version": 2, "engine": []}',
    ], ids=["v3-no-engine", "v4-no-engine", "list-engine"])
    def test_state_without_engine_exits_three(self, site, capsys, text):
        state = site / "state.json"
        state.write_text(text)
        assert main(["ledger", "--state", str(state)]) == 3
        assert capsys.readouterr().err == f"state error: state file {str(state)!r} holds no engine\n"

    @pytest.mark.parametrize("journal_bytes", [None, "12", True, -1, 1.5])
    def test_snapshot_without_journal_bytes_exits_three(self, site, capsys, journal_bytes):
        assert main(_submit_args(site)) == 0
        state = site / "state.json"
        data = state_slots.read(state)
        if journal_bytes is None:
            del data["journal_bytes"]
        else:
            data["journal_bytes"] = journal_bytes
        state_slots.write(state, json.dumps(data))
        capsys.readouterr()
        assert main(["ledger", "--state", str(state)]) == 3
        assert "state error: " in capsys.readouterr().err
        assert main(["tick", "--state", str(state), "--dt", "1"]) == 3

    @pytest.mark.parametrize("command", ["ledger", "tick", "submit"])
    def test_state_in_missing_directory_exits_three(self, site, capsys, command):
        state = str(site / "no" / "such" / "s.json")
        argv = {
            "ledger": ["ledger", "--state", state],
            "tick": ["tick", "--state", state, "--dt", "1"],
            "submit": _submit_args(site)[:1] + ["--state", state] + _submit_args(site)[3:],
        }[command]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(f"state error: cannot lock state file {state!r}")
        assert not (site / "no").exists()

    def test_status_leaves_state_file_untouched(self, site, capsys):
        assert main(_submit_args(site)) == 0
        state = site / "state.json"
        os.utime(state, ns=(10**18, 10**18))
        before = state.read_bytes()
        code = main([
            "manage",
            "--state", str(state),
            "--resource-policy", _p(site, "site.pol"),
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "alice.cred"),
            "--job", "j1",
            "--action", "status",
        ])
        assert code == 0
        assert state.read_bytes() == before
        assert state.stat().st_mtime_ns == 10**18

    def test_tick_without_state_exits_three(self, site):
        assert main(["tick", "--state", _p(site, "state.json"), "--dt", "1"]) == 3

    def test_output_is_byte_deterministic(self, site, tmp_path_factory, capsys):
        def run(base: Path) -> str:
            for name in ("site.pol", "fusion.pol", "alice.cred", "job.rsl", "gridmap"):
                (base / name).write_text((site / name).read_text())
            transcript = []
            for argv in (
                _submit_args(base),
                ["tick", "--state", _p(base, "state.json"), "--dt", "5"],
                ["ledger", "--state", _p(base, "state.json")],
            ):
                assert main(argv) == 0
                transcript.append(capsys.readouterr().out)
            return "".join(transcript)

        first = run(tmp_path_factory.mktemp("one"))
        second = run(tmp_path_factory.mktemp("two"))
        assert first == second


class TestStateVersion1:
    """A version-1 state file written by the CLI before version 2 existed.

    It holds a live job on a dynamic account with a jobtag (j2), a pending
    one on a dynamic account (j5), a done job (j3), a canceled one (j4) and
    ledger entries.  The expected outputs are what that CLI printed.
    """

    DROPPED_JOB_KEYS = {"dynamic_account", "jobtag"}

    @pytest.fixture
    def v1(self, tmp_path):
        for path in STATE_V1.iterdir():
            shutil.copy(path, tmp_path / path.name)
        return tmp_path

    def test_commands_print_what_version_1_printed(self, v1, capsys):
        state = str(v1 / "state.json")
        assert main(["ledger", "--state", state]) == 0
        assert capsys.readouterr().out == (
            "vo=fusion used=1255/5000\n"
            "member=/O=Grid/CN=alice used=602/2000\n"
            "member=/O=Grid/CN=dave used=653/unlimited\n"
        )
        # carol may query j2 only through its jobtag grant
        code = main([
            "manage",
            "--state", state,
            "--resource-policy", str(v1 / "site.pol"),
            "--vo-policy", str(v1 / "fusion.pol"),
            "--cred", str(v1 / "carol.cred"),
            "--job", "j2",
            "--action", "status",
        ])
        assert code == 0
        assert capsys.readouterr().out == (
            "job=j2 state=active owner=/O=Grid/CN=dave consumed=8 reserved=600 priority=0\n"
        )
        assert state_slots.read(v1 / "state.json")["version"] == 1

        assert main(["tick", "--state", state, "--dt", "4"]) == 0
        assert capsys.readouterr().out == (
            "t=4 job=j5 event=activate detail=state=active\n"
            "t=7 job=j5 event=done detail=state=done consumed=3 refunded=47\n"
        )
        data = state_slots.read(v1 / "state.json")
        assert data["version"] == STATE_VERSION
        # the snapshot keeps the live jobs; the journal has the rest
        assert [job[_at("id")] for job in data["engine"]["jobs"]] == ["j1", "j2"]
        assert data["engine"]["events"] == []
        journal = (v1 / "state.json.journal").read_bytes()
        assert data["journal_bytes"] == len(journal)
        lines = [json.loads(line) for line in journal.splitlines()]
        assert [next(iter(line)) for line in lines] == ["event"] * 13 + ["job"] * 3
        assert [line["job"][_at("id")] for line in lines[13:]] == ["j3", "j4", "j5"]
        whole = _load_state(state)
        assert [job[_at("id")] for job in whole["jobs"]] == ["j1", "j2", "j3", "j4", "j5"]
        # each job is a row of the current fields, none of them a dropped key
        assert not self.DROPPED_JOB_KEYS & set(JOB_FIELDS)
        for job in whole["jobs"]:
            assert len(job) == len(JOB_FIELDS)
        assert "lease_ttl" not in whole
        assert whole["pool"] == {"free": ["dyn01", "dyn02"], "leased": ["j2"]}
        assert main(["ledger", "--state", state]) == 0
        assert capsys.readouterr().out == (
            "vo=fusion used=1208/5000\n"
            "member=/O=Grid/CN=alice used=602/2000\n"
            "member=/O=Grid/CN=dave used=606/unlimited\n"
        )

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("pool", "leased", "j999"), {"account": "dyn09", "expires_at": 3604},
             "names no live job 'j999'"),
            (("pool", "free"), ["dyn00"], "account 'dyn00' is both free and leased to j2"),
            (("jobs", 4, "account"), "dyn00", "account 'dyn00' is leased to both j2 and j5"),
            (("pool", "leased", "j5", "account"), "dyn01",
             "lease on 'dyn01' names job j5, which runs on 'dyn02'"),
            (("ledger",), {}, "live job j1 cannot settle: vo 'fusion' is not registered"),
            (("ledger", "fusion", "members"), {},
             "live job j1 cannot settle: '/O=Grid/CN=alice' has no record under vo 'fusion'"),
            (("pool", "leased", "j3"), {"account": "dyn09", "expires_at": 3604},
             "names no live job 'j3'"),
            (("jobs", 0, "consumed"), "x", "job j1 consumed must be an integer, not 'x'"),
            (("jobs", 4, "priority"), None, "job j5 priority must be an integer"),
            (("jobs", 4, "profile", "runtime"), 2.5, "profile figure must be an integer"),
            (("clock",), True, "clock must be an integer, not True"),
            (("lease_ttl",), "3600", "lease_ttl must be an integer"),
            (("pool", "leased", "j2", "expires_at"), "later", "expires_at must be an integer"),
            (("events", 0, "t"), "x", "event 0 t must be an integer, not 'x'"),
            (("events", 3, "t"), False, "event 3 t must be an integer, not False"),
            (("events", 1, "job"), 2, "event 1 job must be a string, not 2"),
            (("events", 2, "name"), None, "event 2 name must be a string, not None"),
            (("events", 4, "detail"), ["state=active"], "event 4 detail must be a string"),
            (("ledger", "fusion", "used"), "x",
             "ledger vo fusion used must be a non-negative integer, not 'x'"),
            (("ledger", "fusion", "used"), -5,
             "ledger vo fusion used must be a non-negative integer, not -5"),
            (("ledger", "fusion", "used"), None,
             "ledger vo fusion used must be a non-negative integer, not None"),
            (("ledger", "fusion", "allocation"), 2.5,
             "ledger vo fusion allocation must be a non-negative integer, not 2.5"),
            (("ledger", "fusion", "allocation"), -1,
             "ledger vo fusion allocation must be a non-negative integer, not -1"),
            (("ledger", "fusion", "members", "/O=Grid/CN=alice", "used"), True,
             "ledger member /O=Grid/CN=alice used must be a non-negative integer, not True"),
            (("ledger", "fusion", "members", "/O=Grid/CN=dave", "quota"), "10",
             "ledger member /O=Grid/CN=dave quota must be a non-negative integer, not '10'"),
            (("ledger", "fusion", "members", "/O=Grid/CN=dave", "quota"), -1,
             "ledger member /O=Grid/CN=dave quota must be a non-negative integer, not -1"),
            (("jobs", 2, "id"), "x3", "job id 'x3' is not j<n>"),
            (("jobs", 2, "id"), "j03", "job id 'j03' is not j<n>"),
            (("jobs", 2, "id"), 3, "job id 3 is not j<n>"),
            (("jobs", 2, "id"), "j1", "job j1 is stored twice"),
            (("next_seq",), 5, "job j5 is not below next_seq 5"),
            (("jobs", 2, "id"), "j7", "job j7 is not below next_seq 6"),
            (("jobs", 0, "id"), "j3", "job j2 is stored out of submission order"),
            (("jobs", 0, "consumed"), -40, "job j1 consumed -40 is outside 0..400"),
            (("jobs", 0, "consumed"), 1000000, "job j1 consumed 1000000 is outside 0..400"),
            (("jobs", 0, "reserved"), -5, "job j1 reserved -5 is negative"),
            (("jobs", 0, "sandbox", "max_memory"), 2.5,
             "job j1 max_memory must be an integer, not 2.5"),
            (("jobs", 1, "sandbox", "max_cpu"), True, "job j2 max_cpu must be an integer, not True"),
            (("jobs", 1, "sandbox", "max_disk"), "10",
             "job j2 max_disk '10' is set, but the sandbox enforces no disk cap"),
            (("jobs", 1, "sandbox", "max_disk"), 10,
             "job j2 max_disk 10 is set, but the sandbox enforces no disk cap"),
            (("jobs", 1, "sandbox", "max_cpu"), 5, "job j2 consumed 8 is outside 0..5"),
            (("jobs", 0, "reserved"), 0,
             "live job j1 cannot settle: reserved 0 is below the 400 cpu-seconds it may consume"),
            (("ledger", "fusion", "used"), 0,
             "ledger vo fusion used 0 is below its live reservations 1250"),
            (("ledger", "fusion", "members", "/O=Grid/CN=dave", "used"), 0,
             "ledger member /O=Grid/CN=dave used 0 is below its live reservations 650"),
            (("jobs", 0, "accounted"), 0, "job j1 accounted must be true or false, not 0"),
            (("jobs", 0, "accounted"), "no", "job j1 accounted must be true or false, not 'no'"),
            (("jobs", 0, "account"), 5, "job j1 account must be a string, not 5"),
            (("jobs", 2, "account"), None, "job j3 account must be a string, not None"),
            (("jobs", 2, "owner"), ["/O=Grid/CN=alice"],
             "job j3 owner must be a string, not ['/O=Grid/CN=alice']"),
            (("jobs", 2, "vo"), 7, "job j3 vo must be a string, not 7"),
            (("jobs", 2, "ended_at"), "2", "job j3 ended_at must be an integer, not '2'"),
            (("jobs", 3, "ended_at"), True, "job j4 ended_at must be an integer, not True"),
            (("pool", "free"), ["dyn01", 5], "pool free must list account names, not ['dyn01', 5]"),
            (("jobs", 0, "state"), "queued", "job j1 state 'queued' is not a job state"),
            (("jobs", 4, "profile", "memory_peak"), -1, "job j5 profile figures must be non-negative"),
            (("jobs", 1, "sandbox", "max_cpu"), 0, "job j2 max_cpu must be positive when set"),
            # at least what j1 has consumed (4), yet below what it may (400)
            (("jobs", 0, "reserved"), 100, "live job j1 cannot settle: reserved 100 is below "
             "the 400 cpu-seconds it may consume"),
        ],
        ids=["unknown-lease-job", "free-and-leased", "leased-twice", "lease-on-other-account",
             "ledger-lacks-vo", "ledger-lacks-member", "done-lease-job", "text-consumed",
             "null-priority", "float-runtime", "bool-clock", "text-lease-ttl", "text-expiry",
             "text-event-time", "bool-event-time", "int-event-job", "null-event-name",
             "list-event-detail", "text-vo-used", "negative-vo-used", "null-vo-used",
             "float-allocation", "negative-allocation", "bool-member-used", "text-quota",
             "negative-quota", "bad-job-id", "zero-padded-job-id", "int-job-id",
             "duplicate-job-id", "next-seq-reused", "job-id-past-next-seq",
             "job-out-of-order", "negative-consumed", "consumed-past-runtime",
             "negative-reserved", "float-memory-cap", "bool-cpu-cap", "text-disk-cap",
             "set-disk-cap", "consumed-past-cpu-cap", "reserved-below-runtime",
             "vo-used-below-reservations", "member-used-below-reservations",
             "int-accounted", "text-accounted", "int-account", "null-account", "list-owner",
             "int-vo", "text-ended-at", "bool-ended-at", "int-free-account", "unknown-state",
             "negative-memory-peak", "zero-cpu-cap", "reserved-above-consumed-below-runtime"],
    )
    def test_malformed_state_fails_closed_at_tick(self, v1, capsys, path, value, message):
        state = v1 / "state.json"
        data = state_slots.read(state)
        entry = data["engine"]
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        state_slots.write(state, json.dumps(data))
        before = state.read_bytes()
        assert main(["tick", "--state", str(state), "--dt", "1"]) == 3
        err = capsys.readouterr().err
        assert "incomplete or malformed: ValueError" in err and message in err
        assert state.read_bytes() == before

    def test_restore_keeps_everything_but_the_dropped_keys(self):
        engine = state_slots.read(STATE_V1 / "state.json")["engine"]
        stored = json.dumps(engine)
        manager = JobManager.restore(_upgrade(engine, 1))
        assert json.dumps(engine) == stored  # the steps change no dict they are given
        assert manager.job_record("j2").jobtag == "fusion-prod"
        for job in engine["jobs"]:
            for key in self.DROPPED_JOB_KEYS:
                del job[key]
            # version 6 stores no disk figure or cap and no groups
            del job["profile"]["disk"], job["sandbox"]["max_disk"], job["sandbox"]["groups"]
            # version 5 stores the request as its attribute map
            job["request"] = parse_rsl(job["request"]).attributes
        # version 3 lists the leased job ids, and version 7 stores no target
        del engine["lease_ttl"], engine["target"]
        engine["pool"]["leased"] = list(engine["pool"]["leased"])
        # version 8 stores each job as a row
        engine["jobs"] = [_as_row(job) for job in engine["jobs"]]
        assert manager.snapshot() == engine


class TestStateVersion2:
    """A version-2 state file written by the CLI before version 3 existed.

    It holds an active job on a mapped account (j1), an active one on a
    dynamic account with a jobtag (j2), a done job (j3), a pending one on
    a dynamic account (j4) and ledger entries; every lease still carries
    an ``expires_at`` and the engine a ``lease_ttl``.  The expected
    outputs are what that CLI printed.
    """

    @pytest.fixture
    def v2(self, tmp_path):
        for path in STATE_V2.iterdir():
            shutil.copy(path, tmp_path / path.name)
        return tmp_path

    def test_commands_print_what_version_2_printed(self, v2, capsys):
        state = str(v2 / "state.json")
        assert main(["ledger", "--state", state]) == 0
        assert capsys.readouterr().out == (
            "vo=fusion used=1223/5000\n"
            "member=/O=Grid/CN=alice used=600/2000\n"
            "member=/O=Grid/CN=dave used=623/unlimited\n"
        )
        code = main([
            "manage",
            "--state", state,
            "--resource-policy", str(v2 / "site.pol"),
            "--vo-policy", str(v2 / "fusion.pol"),
            "--cred", str(v2 / "carol.cred"),
            "--job", "j2",
            "--action", "status",
        ])
        assert code == 0
        assert capsys.readouterr().out == (
            "job=j2 state=active owner=/O=Grid/CN=dave consumed=10 reserved=600 priority=0\n"
        )
        assert state_slots.read(v2 / "state.json")["version"] == 2

        assert main(["tick", "--state", state, "--dt", "10"]) == 0
        assert capsys.readouterr().out == (
            "t=5 job=j4 event=activate detail=state=active\n"
            "t=11 job=j4 event=done detail=state=done consumed=6 refunded=14\n"
        )
        assert main(["ledger", "--state", state]) == 0
        assert capsys.readouterr().out == (
            "vo=fusion used=1209/5000\n"
            "member=/O=Grid/CN=alice used=600/2000\n"
            "member=/O=Grid/CN=dave used=609/unlimited\n"
        )

    def test_next_write_is_the_current_version(self, v2):
        state = v2 / "state.json"
        assert main(["tick", "--state", str(state), "--dt", "1"]) == 0
        text = state_slots.read_text(state)
        data = json.loads(text)
        assert data["version"] == STATE_VERSION
        assert data["engine"]["pool"] == {"free": ["dyn01"], "leased": ["j2", "j4"]}
        assert "lease_ttl" not in text and "expires_at" not in text
        assert "expires_at" not in (v2 / "state.json.journal").read_text()


class TestStateVersion3:
    """A version-3 state file written by the CLI before version 4 existed.

    Three submits with a dynamic pool, ``tick --dt 5``, one more submit and
    alice suspending her job: a suspended job on a mapped account (j1), an
    active one on a dynamic account with a jobtag (j2), a done job (j3), a
    pending one on a dynamic account (j4) and ledger entries, all in one
    file.  The expected outputs are what that CLI printed.
    """

    @pytest.fixture
    def v3(self, tmp_path):
        for path in STATE_V3.iterdir():
            shutil.copy(path, tmp_path / path.name)
        return tmp_path

    def test_commands_print_what_version_3_printed(self, v3, capsys):
        state = str(v3 / "state.json")
        assert main(["ledger", "--state", state]) == 0
        assert capsys.readouterr().out == (
            "vo=fusion used=1223/5000\n"
            "member=/O=Grid/CN=alice used=600/2000\n"
            "member=/O=Grid/CN=dave used=623/unlimited\n"
        )
        assert main(_manage_args(v3, "j2", "status", cred="carol.cred")) == 0
        assert capsys.readouterr().out == (
            "job=j2 state=active owner=/O=Grid/CN=dave consumed=10 reserved=600 priority=0\n"
        )
        assert main(_manage_args(v3, "j3", "status", cred="dave.cred")) == 0
        assert capsys.readouterr().out == (
            "job=j3 state=done owner=/O=Grid/CN=dave consumed=3 reserved=50 priority=0\n"
        )
        assert main(_manage_args(v3, "j3", "cancel", cred="dave.cred")) == 1
        assert capsys.readouterr().err == "refused: cannot cancel job j3 in state done\n"
        assert state_slots.read(v3 / "state.json")["version"] == 3
        assert not (v3 / "state.json.journal").exists()

        assert main(["tick", "--state", state, "--dt", "10"]) == 0
        assert capsys.readouterr().out == (
            "t=5 job=j4 event=activate detail=state=active\n"
            "t=11 job=j4 event=done detail=state=done consumed=6 refunded=14\n"
        )
        assert main(["ledger", "--state", state]) == 0
        assert capsys.readouterr().out == (
            "vo=fusion used=1209/5000\n"
            "member=/O=Grid/CN=alice used=600/2000\n"
            "member=/O=Grid/CN=dave used=609/unlimited\n"
        )

    def test_next_write_is_the_current_version(self, v3):
        state = v3 / "state.json"
        (v3 / "state.json.journal").write_text("left over from an older site\n")
        assert main(["tick", "--state", str(state), "--dt", "10"]) == 0
        data = state_slots.read(state)
        assert data["version"] == STATE_VERSION
        assert [job[_at("id")] for job in data["engine"]["jobs"]] == ["j1", "j2"]
        assert data["engine"]["pool"] == {"free": ["dyn01", "dyn02"], "leased": ["j2"]}
        # the journal starts afresh and holds the whole history
        assert data["journal_bytes"] == (v3 / "state.json.journal").stat().st_size
        expected = JobManager.restore(
            _upgrade(state_slots.read(STATE_V3 / "state.json")["engine"], 3))
        expected.tick(10)
        assert _load_state(str(state)) == expected.snapshot()


    @pytest.mark.parametrize("path, value, message", [
        (("next_seq",), 1, "ValueError: job j1 is not below next_seq 1"),
        (("jobs", 2, "id"), "j1", "ValueError: job j1 is stored twice"),
        (("jobs", 2, "id"), "job3", "ValueError: job id 'job3' is not j<n>"),
        (("ledger", "fusion", "used"), "x",
         "ValueError: ledger vo fusion used must be a non-negative integer, not 'x'"),
        (("ledger",), [], "AttributeError: 'list' object has no attribute 'items'"),
        (("ledger", "fusion", "members"), [["/O=Grid/CN=alice", 600]],
         "AttributeError: 'list' object has no attribute 'items'"),
    ], ids=["next-seq-reused", "duplicate-job-id", "bad-job-id", "text-vo-used", "list-ledger",
            "list-members"])
    def test_malformed_state_fails_closed_at_submit(self, v3, capsys, path, value, message):
        # with next_seq 1, a submit would replace alice's suspended j1
        state = v3 / "state.json"
        data = state_slots.read(state)
        entry = data["engine"]
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        state_slots.write(state, json.dumps(data))
        (v3 / "job.rsl").write_text(RSL)
        before = _files(v3)
        for command in (
            ["submit", "--state", str(state), "--resource-policy", _p(v3, "site.pol"),
             "--vo-policy", _p(v3, "fusion.pol"), "--cred", _p(v3, "dave.cred"),
             "--rsl", _p(v3, "job.rsl"), "--runtime", "5"],
            ["tick", "--state", str(state), "--dt", "2000"],
        ):
            assert main(command) == 3
            err = capsys.readouterr().err
            assert f"incomplete or malformed: {message}" in err
            assert _files(v3) == before


def _replay_fixture_commands(site, capsys) -> None:
    """The commands whose outputs the version-4 CLI printed on its fixture;
    the version-5 and -6 fixtures were written with the same commands, and
    the version-7 one is the version-6 site rewritten."""
    state = str(site / "state.json")
    before = _files(site)
    assert main(["ledger", "--state", state]) == 0
    assert capsys.readouterr().out == (
        "vo=fusion used=1223/5000\n"
        "member=/O=Grid/CN=alice used=600/2000\n"
        "member=/O=Grid/CN=dave used=623/unlimited\n"
    )
    assert main(_manage_args(site, "j2", "status", cred="carol.cred")) == 0
    assert capsys.readouterr().out == (
        "job=j2 state=active owner=/O=Grid/CN=dave consumed=10 reserved=600 priority=0\n"
    )
    assert main(_manage_args(site, "j3", "status", cred="dave.cred")) == 0
    assert capsys.readouterr().out == (
        "job=j3 state=done owner=/O=Grid/CN=dave consumed=3 reserved=50 priority=0\n"
    )
    assert main(_manage_args(site, "j3", "cancel", cred="dave.cred")) == 1
    assert capsys.readouterr().err == "refused: cannot cancel job j3 in state done\n"
    assert _files(site) == before

    assert main(["tick", "--state", state, "--dt", "10"]) == 0
    assert capsys.readouterr().out == (
        "t=5 job=j4 event=activate detail=state=active\n"
        "t=11 job=j4 event=done detail=state=done consumed=6 refunded=14\n"
    )
    assert main(["ledger", "--state", state]) == 0
    assert capsys.readouterr().out == (
        "vo=fusion used=1209/5000\n"
        "member=/O=Grid/CN=alice used=600/2000\n"
        "member=/O=Grid/CN=dave used=609/unlimited\n"
    )
    assert main(_manage_args(site, "j4", "status", cred="dave.cred")) == 0
    assert capsys.readouterr().out == (
        "job=j4 state=done owner=/O=Grid/CN=dave consumed=6 reserved=20 priority=0\n"
    )
    assert main(_manage_args(site, "j2", "suspend", cred="carol.cred")) == 0
    assert main(_manage_args(site, "j2", "status", cred="dave.cred")) == 0
    assert capsys.readouterr().out == (
        "job=j2 state=suspended\n"
        "job=j2 state=suspended owner=/O=Grid/CN=dave consumed=30 reserved=600 priority=0\n"
    )


class TestStateVersion4:
    """A version-4 site written by the CLI before version 5 existed.

    Three submits with a dynamic pool, ``tick --dt 5``, one more submit and
    alice suspending her job.  The snapshot holds a suspended job on a
    mapped account (j1), an active one on a dynamic account with a jobtag
    and arguments (j2) and a pending one on a dynamic account (j4); the
    journal holds the events and a done job (j3).  Every request is stored
    as RSL text.  The expected outputs are what that CLI printed.
    """

    J2_REQUEST = {
        "arguments": ["-v", 'run "1"'],
        "count": 2,
        "executable": "/opt/vo/apps/transp",
        "jobtag": "fusion-prod",
        "maxcputime": 300,
    }

    @pytest.fixture
    def v4(self, tmp_path):
        for path in STATE_V4.iterdir():
            shutil.copy(path, tmp_path / path.name)
        return tmp_path

    def test_commands_print_what_version_4_printed(self, v4, capsys):
        _replay_fixture_commands(v4, capsys)

    def test_next_write_is_the_current_version_and_appends_to_the_journal(self, v4):
        state = v4 / "state.json"
        journal = v4 / "state.json.journal"
        old = journal.read_bytes()
        assert main(["tick", "--state", str(state), "--dt", "10"]) == 0
        data = state_slots.read(state)
        assert data["version"] == STATE_VERSION
        assert [job[_at("id")] for job in data["engine"]["jobs"]] == ["j1", "j2"]
        assert data["engine"]["jobs"][1][_at("request")] == self.J2_REQUEST
        assert data["engine"]["pool"] == {"free": ["dyn01", "dyn02"], "leased": ["j2"]}
        new = journal.read_bytes()
        assert new.startswith(old) and data["journal_bytes"] == len(new) > len(old)
        expected = JobManager.restore(_load_state(str(STATE_V4 / "state.json")))
        expected.tick(10)
        assert JobManager.restore(_load_state(str(state))).snapshot() == expected.snapshot()

    def test_finished_job_manage_reads_both_request_forms(self, v4, capsys):
        assert main(["tick", "--state", _p(v4, "state.json"), "--dt", "10"]) == 0
        journal = v4 / "state.json.journal"
        lines = [json.loads(line) for line in journal.read_text().splitlines()]
        j3, j4 = (line["job"] for line in lines if "job" in line)
        # j3 as version 4 wrote it, j4 as a row of the current version
        assert (j3["id"], j3["request"]) == ("j3", '&(executable="/opt/vo/apps/transp")(maxcputime=50)')
        assert (j4[_at("id")], j4[_at("request")]) == (
            "j4", {"executable": "/opt/vo/apps/transp", "maxcputime": 20})
        capsys.readouterr()
        before = _files(v4)
        assert main(_manage_args(v4, "j3", "status", cred="dave.cred")) == 0
        assert main(_manage_args(v4, "j4", "status", cred="dave.cred")) == 0
        assert capsys.readouterr().out == (
            "job=j3 state=done owner=/O=Grid/CN=dave consumed=3 reserved=50 priority=0\n"
            "job=j4 state=done owner=/O=Grid/CN=dave consumed=6 reserved=20 priority=0\n"
        )
        assert main(_manage_args(v4, "j4", "cancel", cred="dave.cred")) == 1
        assert capsys.readouterr().err == "refused: cannot cancel job j4 in state done\n"
        assert _files(v4) == before


class TestStateVersion6:
    """A version-6 site written by the CLI before version 7 existed, with
    the same commands as the version-4 and -5 fixtures.  Its snapshot still
    stores the policy target, which no decision reads."""

    @pytest.fixture
    def v6(self, tmp_path):
        for path in STATE_V6.iterdir():
            shutil.copy(path, tmp_path / path.name)
        return tmp_path

    def test_commands_print_what_version_6_printed(self, v6, capsys):
        _replay_fixture_commands(v6, capsys)

    def test_next_write_is_the_current_version_without_target(self, v6):
        state = v6 / "state.json"
        journal = v6 / "state.json.journal"
        old_snapshot, old_journal = state_slots.read_text(state), journal.read_bytes()
        assert json.loads(old_snapshot)["version"] == 6 and '"target"' in old_snapshot
        assert main(["tick", "--state", str(state), "--dt", "10"]) == 0
        text = state_slots.read_text(state)
        data = json.loads(text)
        assert data["version"] == STATE_VERSION
        assert '"target"' not in text and "target" not in data["engine"]
        new_journal = journal.read_bytes()
        assert new_journal.startswith(old_journal) and b'"target"' not in new_journal
        expected = JobManager.restore(_load_state(str(STATE_V6 / "state.json")))
        expected.tick(10)
        assert _load_state(str(state)) == expected.snapshot()

    @pytest.mark.parametrize("version, path, value, message", [
        (7, ("pool", "leased"), {"j2": {"account": "dyn00", "expires_at": 3605}},
         "pool free and leased must be lists, not ['dyn01'] and "
         "{'j2': {'account': 'dyn00', 'expires_at': 3605}}"),
        (7, ("pool", "free"), {"dyn01": None},
         "pool free and leased must be lists, not {'dyn01': None} and ['j2', 'j4']"),
        (7, ("jobs", 1, "request"), '&(executable="/opt/vo/apps/transp")',
         "job j2 request must be an attribute map, not '&(executable=\"/opt/vo/apps/transp\")'"),
        (7, ("jobs", 1, "sandbox", "max_disk"), None,
         "job j2 sandbox holds ['max_cpu', 'max_disk', 'max_memory'], not the two caps"),
        (6, ("jobs", 1, "sandbox", "max_disk"), 10,
         "job j2 sandbox holds ['max_cpu', 'max_disk', 'max_memory'], not the two caps"),
        (7, ("jobs", 0, "sandbox"), {"max_cpu": 600},
         "job j1 sandbox holds ['max_cpu'], not the two caps"),
        # iterated, either would read as no events, and a merge with the
        # journal's events would raise TypeError
        (7, ("events",), "", "events must be a list, not ''"),
        (7, ("events",), {}, "events must be a list, not {}"),
    ], ids=["lease-map", "free-map", "text-request", "disk-cap", "v6-set-disk-cap", "no-memory-cap",
            "text-events", "map-events"])
    def test_shape_restore_does_not_read_exits_three(self, v6, capsys, version, path, value, message):
        """Only the upgrade steps read an old shape; `restore` refuses one,
        and a cap it does not know, which would go unenforced.  Events that
        are no list are refused as the snapshot is read."""
        state = v6 / "state.json"
        data = state_slots.read(state)
        if version == 7:
            data["version"] = 7
            del data["engine"]["target"]
        entry = data["engine"]
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        state_slots.write(state, json.dumps(data))
        before = _files(v6)
        assert main(["ledger", "--state", str(state)]) == 3
        assert capsys.readouterr().err.endswith(f"incomplete or malformed: ValueError: {message}\n")
        assert _files(v6) == before

    @pytest.mark.parametrize("edits, message", [
        ({"consumed": "x", "state": "queued"}, "job j1 consumed must be an integer, not 'x'"),
        ({"reserved": -5, "sandbox": {"max_cpu": 600, "max_memory": None, "max_disk": 1}},
         "job j1 reserved -5 is negative"),
        # the request's own checks run after the accounted flag's
        ({"request": {"count": "x"}, "accounted": 0},
         "job j1 accounted must be true or false, not 0"),
        # within the figures: the integers, then the names, ended_at and the sign
        ({"priority": "x", "owner": 5}, "job j1 priority must be an integer, not 'x'"),
        ({"owner": 5, "ended_at": "2"}, "job j1 owner must be a string, not 5"),
        ({"ended_at": "2", "reserved": -5}, "job j1 ended_at must be an integer, not '2'"),
    ], ids=["consumed-before-state", "reserved-before-sandbox", "accounted-before-request",
            "priority-before-owner", "owner-before-ended-at", "ended-at-before-sign"])
    def test_first_of_two_faults_is_reported_at_tick(self, v6, capsys, edits, message):
        """`restore` checks a stored job's fields in one fixed order, so a
        job with two faults reports the one that order reaches first."""
        state = v6 / "state.json"
        data = state_slots.read(state)
        data["engine"]["jobs"][0].update(edits)
        state_slots.write(state, json.dumps(data))
        before = _files(v6)
        assert main(["tick", "--state", str(state), "--dt", "1"]) == 3
        assert capsys.readouterr().err.endswith(f"incomplete or malformed: ValueError: {message}\n")
        assert _files(v6) == before


class TestStateVersion7:
    """The version-6 site with its snapshot rewritten at version 7 over the
    same journal: `JobManager.restore` of the snapshot, then `_save_state`
    with nothing to append.  It pins what `restore` reads of the current
    version in a committed file."""

    @pytest.fixture
    def v7(self, tmp_path):
        for path in STATE_V7.iterdir():
            shutil.copy(path, tmp_path / path.name)
        return tmp_path

    def test_commands_print_what_version_6_printed(self, v7, capsys):
        _replay_fixture_commands(v7, capsys)

    def test_holds_the_version_6_site(self):
        data = state_slots.read(STATE_V7 / "state.json")
        assert data["version"] == 7 and "target" not in data["engine"]
        journal = (STATE_V7 / "state.json.journal").read_bytes()
        assert journal == (STATE_V6 / "state.json.journal").read_bytes()
        assert data["journal_bytes"] == len(journal)
        assert _load_state(str(STATE_V7 / "state.json")) == _load_state(str(STATE_V6 / "state.json"))


class TestStateVersion8:
    """The version-7 site with its snapshot rewritten at version 8 over the
    same journal, as the version-7 fixture was made from the version-6 one.
    Its snapshot stores each live job as a row of the `JOB_FIELDS`; its
    journal still holds the finished job as the map version 6 wrote."""

    @pytest.fixture
    def v8(self, tmp_path):
        for path in STATE_V8.iterdir():
            shutil.copy(path, tmp_path / path.name)
        return tmp_path

    def test_commands_print_what_version_6_printed(self, v8, capsys):
        _replay_fixture_commands(v8, capsys)

    def test_holds_the_version_7_site(self):
        data = state_slots.read(STATE_V8 / "state.json")
        assert data["version"] == 8
        assert [job[_at("id")] for job in data["engine"]["jobs"]] == ["j1", "j2", "j4"]
        assert all(len(job) == len(JOB_FIELDS) for job in data["engine"]["jobs"])
        journal = (STATE_V8 / "state.json.journal").read_bytes()
        assert journal == (STATE_V7 / "state.json.journal").read_bytes()
        assert data["journal_bytes"] == len(journal)
        assert _load_state(str(STATE_V8 / "state.json")) == _load_state(str(STATE_V7 / "state.json"))

    def test_first_write_goes_to_the_other_slot(self, v8, capsys):
        """A version-8 file has no header and reads as seq 0: the first write
        creates ``state.json.alt`` at seq 1 and leaves ``state.json`` as it
        was, and the second overwrites ``state.json`` in place at seq 2."""
        state, alt = v8 / "state.json", v8 / "state.json.alt"
        old = state.read_bytes()
        assert main(["tick", "--state", str(state), "--dt", "1"]) == 0
        assert state.read_bytes() == old
        assert state_slots.newest(state)[:2] == (alt, 1)
        assert main(["tick", "--state", str(state), "--dt", "1"]) == 0
        assert state_slots.newest(state)[:2] == (state, 2)
        assert state_slots.unseal(alt.read_bytes())[0] == 1

    def test_finished_job_manage_reads_map_and_row_lines(self, v8, capsys):
        """A journal written before version 8 holds job maps, and the next
        write appends rows after them; a finished-job ``manage`` reads both."""
        journal = v8 / "state.json.journal"
        old = journal.read_bytes()
        assert main(["tick", "--state", _p(v8, "state.json"), "--dt", "10"]) == 0
        new = journal.read_bytes()
        assert new.startswith(old)
        old_jobs = [json.loads(line)["job"] for line in old.splitlines() if b'"job":{' in line]
        new_jobs = [json.loads(line)["job"] for line in new[len(old):].splitlines()
                    if b'"job":[' in line]
        assert [job["id"] for job in old_jobs] == ["j3"]
        assert [job[_at("id")] for job in new_jobs] == ["j4"]
        capsys.readouterr()
        before = _files(v8)
        assert main(_manage_args(v8, "j3", "status", cred="dave.cred")) == 0
        assert main(_manage_args(v8, "j4", "status", cred="dave.cred")) == 0
        assert capsys.readouterr().out == (
            "job=j3 state=done owner=/O=Grid/CN=dave consumed=3 reserved=50 priority=0\n"
            "job=j4 state=done owner=/O=Grid/CN=dave consumed=6 reserved=20 priority=0\n"
        )
        assert main(_manage_args(v8, "j4", "cancel", cred="dave.cred")) == 1
        assert capsys.readouterr().err == "refused: cannot cancel job j4 in state done\n"
        assert _files(v8) == before

    @pytest.mark.parametrize("edit, message", [
        (lambda row: row[:-1], "is not a row of 14 fields"),
        (lambda row: row + [None], "is not a row of 14 fields"),
        (lambda row: _with(row, "sandbox", [600]), "job j1 sandbox holds [600], not the two caps"),
        (lambda row: _with(row, "sandbox", {"max_cpu": 600, "max_memory": None}),
         "job j1 sandbox holds ['max_cpu', 'max_memory'], not the two caps"),
        (lambda row: _with(row, "profile", [400]),
         "job j1 profile [400] is not a runtime and memory peak pair"),
        (lambda row: _with(row, "profile", {"runtime": 400, "memory_peak": 0}),
         "job j1 profile {'runtime': 400, 'memory_peak': 0} is not a runtime and memory peak pair"),
    ], ids=["short-row", "long-row", "one-cap", "cap-map", "one-figure", "profile-map"])
    def test_malformed_row_exits_three(self, v8, capsys, edit, message):
        """A row, a sandbox and a profile each hold exactly their fields;
        the maps of version 7 are refused in a version-8 file."""
        state = v8 / "state.json"
        data = state_slots.read(state)
        data["engine"]["jobs"][0] = edit(data["engine"]["jobs"][0])
        state_slots.write(state, json.dumps(data))
        before = _files(v8)
        for argv in (["ledger", "--state", str(state)], ["tick", "--state", str(state), "--dt", "1"],
                     _manage_args(v8, "j3", "status", cred="dave.cred")):
            assert main(argv) == 3
            assert capsys.readouterr().err.endswith(f"{message}\n")
        assert _files(v8) == before


class TestStateVersion9:
    """The version-8 site with its snapshot rewritten twice at version 9
    over the same journal, so that both slots hold it: ``state.json.alt``
    at seq 1 (the first write after a version-8 file) and ``state.json``,
    overwritten in place, at seq 2."""

    @pytest.fixture
    def v9(self, tmp_path):
        for path in STATE_V9.iterdir():
            shutil.copy(path, tmp_path / path.name)
        return tmp_path

    def test_commands_print_what_version_6_printed(self, v9, capsys):
        _replay_fixture_commands(v9, capsys)

    def test_holds_the_version_8_site_in_both_slots(self):
        state, alt = (STATE_V9 / name for name in ("state.json", "state.json.alt"))
        assert [state_slots.unseal(path.read_bytes())[0] for path in (state, alt)] == [2, 1]
        assert state_slots.newest(state)[:2] == (state, 2)
        data = state_slots.read(state)
        assert data["version"] == 9
        assert state_slots.unseal(alt.read_bytes())[1] == state_slots.newest(state)[2]
        journal = (STATE_V9 / "state.json.journal").read_bytes()
        assert journal == (STATE_V8 / "state.json.journal").read_bytes()
        assert data["journal_bytes"] == len(journal)
        assert _load_state(str(state)) == _load_state(str(STATE_V8 / "state.json"))

    def test_next_writes_alternate_the_slots(self, v9, capsys):
        state = v9 / "state.json"
        for seq, slot in ((3, "state.json.alt"), (4, "state.json"), (5, "state.json.alt")):
            assert main(["tick", "--state", str(state), "--dt", "1"]) == 0
            assert state_slots.newest(state)[:2] == (v9 / slot, seq)
            assert not (v9 / "state.json.tmp").exists()

    @pytest.mark.parametrize("job, code, out, jobs", [
        ("j2", 0, "job=j2 state=active owner=/O=Grid/CN=dave consumed=10 reserved=600 priority=0\n",
         3),
        ("j3", 0, "job=j3 state=done owner=/O=Grid/CN=dave consumed=3 reserved=50 priority=0\n",
         4),
        ("j9", 2, "", 4),
    ], ids=["live", "finished", "unknown"])
    def test_manage_reads_the_snapshot_once(self, v9, capsys, monkeypatch, job, code, out, jobs):
        """A job the snapshot lacks, finished or unknown, is looked for in
        the journal merged into the snapshot already read: the slots are
        read once, and the site (3 live jobs, or all 4) is restored once."""
        newest_slot, reads = cli._newest_slot, []
        monkeypatch.setattr(cli, "_newest_slot", lambda path: reads.append(path) or newest_slot(path))
        restore, restored = JobManager.restore, []
        monkeypatch.setattr(JobManager, "restore", classmethod(
            lambda cls, state, **inputs: restored.append(len(state["jobs"])) or restore(state, **inputs)
        ))
        assert main(_manage_args(v9, job, "status", cred="dave.cred")) == code
        assert capsys.readouterr().out == out
        assert reads == [str(v9 / "state.json")]
        assert restored == [jobs]

    @pytest.mark.parametrize("what, value, message", [
        ("row", 5, "stored job 5 is not a row of 14 fields"),
        ("row", {"id": "j2"}, "stored job {'id': 'j2'} is not a row of 14 fields"),
        ("id", "jx", "job id 'jx' is not j<n>"),
        ("id", 77, "job id 77 is not j<n>"),
        ("reserved", "x", "job j2 reserved must be an integer, not 'x'"),
        # each term of the one test of a row's scalar fields
        ("reserved", True, "job j2 reserved must be an integer, not True"),
        ("consumed", 10.0, "job j2 consumed must be an integer, not 10.0"),
        ("priority", None, "job j2 priority must be an integer, not None"),
        ("submitted_at", "0", "job j2 submitted_at must be an integer, not '0'"),
        ("owner", None, "job j2 owner must be a string, not None"),
        ("account", 0, "job j2 account must be a string, not 0"),
        ("vo", 7, "job j2 vo must be a string, not 7"),
        ("ended_at", "5", "job j2 ended_at must be an integer, not '5'"),
        ("reserved", -1, "job j2 reserved -1 is negative"),
        ("row", "after j4", "job j2 is stored out of submission order"),
        ("journal", "jx", "job id 'jx' is not j<n>"),
        ("journal", 1234, "job id 1234 is not j<n>"),
    ], ids=["number-row", "map-row", "text-id", "number-id", "text-reserved", "bool-reserved",
            "float-consumed", "null-priority", "text-submitted-at", "null-owner", "int-account",
            "int-vo", "text-ended-at", "negative-reserved", "out-of-order",
            "journal-text-id", "journal-number-id"])
    def test_finished_job_manage_reports_restores_own_fault(self, v9, capsys, what, value, message):
        """A ``manage`` of a finished job merges the journal before the one
        restore, and the merge judges no row: a malformed live row j2 (each
        scalar field failing alone what a well-formed row passes as one
        test), j2 stored after j4, or a finished journal row with a bad id
        is refused in `restore`'s words, and the files stay as they were."""
        state = v9 / "state.json"
        if what == "journal":  # the journal's one finished job, stored as a version-6 map
            lines = (v9 / "state.json.journal").read_text().splitlines()
            n = next(n for n, line in enumerate(lines) if line.startswith('{"job"'))
            entry = json.loads(lines[n])
            entry["job"]["id"] = value
            lines[n] = json.dumps(entry)
            _commit_journal(v9, "".join(line + "\n" for line in lines).encode())
        else:
            def change(data):
                rows = data["engine"]["jobs"]  # j1, j2, j4
                if value == "after j4":
                    rows[1:] = rows[2], rows[1]
                elif what == "row":
                    rows[1] = value
                else:
                    rows[1][_at(what)] = value
            state_slots.edit(state, change)
        before = _files(v9)
        assert main(_manage_args(v9, "j3", "status", cred="dave.cred")) == 3
        assert capsys.readouterr().err == (
            f"state error: state file {str(state)!r} is incomplete or malformed: ValueError: {message}\n"
        )
        assert _files(v9) == before

    def test_snapshot_with_events_exits_three(self, v9, tmp_path_factory, capsys):
        """A version-4 or later snapshot keeps its history in the journal,
        so an event stored in it is refused, not read as history; versions
        1-3, which have no journal, keep their events in the snapshot."""
        state = v9 / "state.json"
        forged = {"t": 1, "job": "j9", "name": "done", "detail": "forged"}
        state_slots.edit(state, lambda data: data["engine"]["events"].append(forged))
        before = _files(v9)
        for argv in (["ledger", "--state", str(state)], ["tick", "--state", str(state), "--dt", "1"],
                     _manage_args(v9, "j3", "status", cred="dave.cred")):
            assert main(argv) == 3
            assert capsys.readouterr().err == (
                f"state error: state file {str(state)!r} is incomplete or malformed: ValueError: "
                "a version-9 snapshot's events belong in its journal\n"
            )
            assert _files(v9) == before
        v3 = tmp_path_factory.mktemp("v3")
        for path in STATE_V3.iterdir():
            shutil.copy(path, v3 / path.name)
        assert state_slots.read(v3 / "state.json")["engine"]["events"]
        assert main(["ledger", "--state", str(v3 / "state.json")]) == 0


@pytest.mark.parametrize("fixture", [STATE_V4, STATE_V5], ids=["v4", "v5"])
def test_finished_jobs_load_and_the_next_write_drops_disk_and_groups(tmp_path, capsys, fixture):
    """A version-4 or -5 site, whose jobs store a disk figure and cap and the
    groups, loads; what the next write adds holds none of them."""
    for path in fixture.iterdir():
        shutil.copy(path, tmp_path / path.name)
    j3 = "job=j3 state=done owner=/O=Grid/CN=dave consumed=3 reserved=50 priority=0\n"
    assert main(_manage_args(tmp_path, "j3", "status", cred="dave.cred")) == 0
    assert capsys.readouterr().out == j3
    old = (tmp_path / "state.json.journal").read_bytes()
    assert main(["tick", "--state", _p(tmp_path, "state.json"), "--dt", "10"]) == 0
    snapshot = state_slots.read_text(tmp_path / "state.json")
    assert json.loads(snapshot)["version"] == STATE_VERSION
    journal = (tmp_path / "state.json.journal").read_bytes()
    assert journal.startswith(old) and b'"disk"' in old
    for written in (snapshot, journal[len(old):].decode()):
        for key in ("disk", "max_disk", "groups"):
            assert f'"{key}"' not in written
    capsys.readouterr()
    assert main(_manage_args(tmp_path, "j3", "status", cred="dave.cred")) == 0
    assert main(_manage_args(tmp_path, "j4", "status", cred="dave.cred")) == 0
    assert capsys.readouterr().out == j3 + (
        "job=j4 state=done owner=/O=Grid/CN=dave consumed=6 reserved=20 priority=0\n"
    )


@pytest.mark.parametrize("fixture, key, value, message", [
    (STATE_V5, ("sandbox", "max_disk"), 5,
     "ValueError: job j3 max_disk 5 is set, but the sandbox enforces no disk cap"),
    (STATE_V5, ("profile",), [3, 0], "AttributeError: 'list' object has no attribute 'items'"),
    (STATE_V4, ("request",), "&(count=1", "RslSyntaxError: "),
], ids=["v5-set-disk-cap", "v5-list-profile", "v4-bad-text"])
def test_old_journal_line_fault_exits_three(tmp_path, capsys, fixture, key, value, message):
    """A finished job in an older site's journal takes the steps its shape
    needs, and each step's refusals hold there too."""
    for path in fixture.iterdir():
        shutil.copy(path, tmp_path / path.name)
    journal = tmp_path / "state.json.journal"
    lines = journal.read_text().splitlines()
    entry = json.loads(lines[7])
    assert entry["job"]["id"] == "j3"
    record = entry["job"]
    for part in key[:-1]:
        record = record[part]
    record[key[-1]] = value
    lines[7] = json.dumps(entry)
    _commit_journal(tmp_path, "".join(line + "\n" for line in lines).encode())
    before = _files(tmp_path)
    assert main(_manage_args(tmp_path, "j3", "status", cred="dave.cred")) == 3
    assert f"incomplete or malformed: {message}" in capsys.readouterr().err
    assert _files(tmp_path) == before


def _make_busy(site) -> None:
    """A site with a done job (j1), a live one (j2) and a committed journal."""
    (site / "small.rsl").write_text('&(executable="/opt/vo/apps/transp")(maxcputime=300)\n')
    assert main(_submit_args(site, runtime="2")) == 0
    assert main(_submit_args(site, cred="bob.cred", rsl="small.rsl")) == 0
    assert main(["tick", "--state", _p(site, "state.json"), "--dt", "5"]) == 0


def _files(site) -> dict:
    """The bytes and mtime of both snapshot slots and the journal, of
    each that is a file."""
    return {
        name: (path.read_bytes(), path.stat().st_mtime_ns)
        for name in ("state.json", "state.json.alt", "state.json.journal")
        if (path := site / name).is_file()
    }


class TestJournal:
    """Versions 4 and later: the snapshot, the journal beside it, and the commit rule."""

    @pytest.fixture
    def busy(self, site, capsys):
        _make_busy(site)
        capsys.readouterr()
        for path in (site / "state.json", site / "state.json.alt", site / "state.json.journal"):
            os.utime(path, ns=(10**18, 10**18))
        return site

    def test_snapshot_holds_the_live_site_and_the_journal_the_rest(self, busy):
        raw = state_slots.read_text(busy / "state.json")
        data = json.loads(raw)
        assert raw == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
        assert sorted(data) == ["engine", "format", "journal_bytes", "version"]
        assert [job[_at("id")] for job in data["engine"]["jobs"]] == ["j2"]
        assert data["engine"]["events"] == []
        journal = (busy / "state.json.journal").read_text().splitlines()
        assert len(journal) == 6 and json.loads(journal[-1])["job"][_at("id")] == "j1"
        assert data["journal_bytes"] == (busy / "state.json.journal").stat().st_size

    @pytest.mark.parametrize("tail", [
        '{"event":{"detail":"state=active","job":"j9","name":"activate","t":7}}\n',
        '{"event":{"detail":"state=act',
        '{"job":{"id":"j9"}}\n{"event":{"detail":"x","job":"j9",',
    ], ids=["whole-line", "cut-line", "both"])
    def test_uncommitted_tail_is_ignored_then_dropped(self, busy, capsys, tail):
        state = _p(busy, "state.json")
        journal = busy / "state.json.journal"
        committed = journal.read_bytes()
        before = _load_state(state)
        with journal.open("a") as f:
            f.write(tail)
        assert _load_state(state) == before
        assert main(["ledger", "--state", state]) == 0
        assert main(_manage_args(busy, "j1", "status")) == 0
        assert main(_submit_args(busy, cred="bob.cred", rsl="small.rsl")) == 0
        capsys.readouterr()
        text = journal.read_bytes()
        assert text.startswith(committed) and b"j9" not in text
        assert state_slots.read(busy / "state.json")["journal_bytes"] == len(text)
        assert len(_load_state(state)["events"]) == len(before["events"]) + 1

    @pytest.mark.parametrize("command", ["ledger", "tick", "submit", "status", "done-status"])
    @pytest.mark.parametrize("cut", [1, None], ids=["short", "missing"])
    def test_short_journal_exits_three_and_changes_nothing(self, busy, capsys, command, cut):
        journal = busy / "state.json.journal"
        if cut is None:
            journal.unlink()
        else:
            with journal.open("r+b") as f:
                f.truncate(journal.stat().st_size - cut)
            # the older slot covers no more than is left, so it would load:
            # a journal too short for the newest slot never falls back to it
            older = state_slots.unseal((busy / "state.json.alt").read_bytes())[1]
            assert json.loads(older)["journal_bytes"] <= journal.stat().st_size
        before = _files(busy)
        argv = {
            "ledger": ["ledger", "--state", _p(busy, "state.json")],
            "tick": ["tick", "--state", _p(busy, "state.json"), "--dt", "1"],
            "submit": _submit_args(busy),
            "status": _manage_args(busy, "j2", "status", cred="bob.cred"),
            "done-status": _manage_args(busy, "j1", "status"),
        }[command]
        assert main(argv) == 3
        assert "but the snapshot covers" in capsys.readouterr().err
        assert _files(busy) == before

    def test_stale_tmp_is_harmless(self, busy, capsys):
        state = _p(busy, "state.json")
        tmp = busy / "state.json.tmp"
        tmp.write_text('{"format": "gridauth-state", "version": 4, "engine": {"half')
        before = _load_state(state)
        assert main(["ledger", "--state", state]) == 0
        assert _load_state(state) == before
        # a write in place leaves it be; the write that creates a slot file
        # (here state.json, the older slot, is gone) replaces it
        assert main(_submit_args(busy, cred="bob.cred", rsl="small.rsl")) == 0
        assert tmp.exists()
        (busy / "state.json").unlink()
        assert main(["tick", "--state", state, "--dt", "1"]) == 0
        assert not tmp.exists()
        assert [job[_at("id")] for job in _load_state(state)["jobs"]] == ["j1", "j2", "j3"]

    def test_finished_job_is_read_from_the_journal_and_never_written(self, busy, capsys):
        before = _files(busy)
        assert main(_manage_args(busy, "j1", "status")) == 0
        assert capsys.readouterr().out == (
            "job=j1 state=done owner=/O=Grid/CN=alice consumed=2 reserved=600 priority=0\n"
        )
        assert main(_manage_args(busy, "j1", "cancel")) == 1
        assert capsys.readouterr().err == "refused: cannot cancel job j1 in state done\n"
        assert main(_manage_args(busy, "j1", "suspend")) == 1
        capsys.readouterr()
        assert main(_manage_args(busy, "j9", "status")) == 2
        assert capsys.readouterr().err == "error: no such job 'j9'\n"
        assert _files(busy) == before

    def test_reads_leave_both_files_untouched(self, busy, capsys):
        before = _files(busy)
        assert main(["ledger", "--state", _p(busy, "state.json")]) == 0
        assert main(_manage_args(busy, "j2", "status", cred="bob.cred")) == 0
        assert _files(busy) == before

    @pytest.mark.parametrize("n, change, message", [
        (0, ("event", "t", "x"), "journal line 1 t must be an integer, not 'x'"),
        (1, ("event", "t", True), "journal line 2 t must be an integer, not True"),
        (3, ("event", "detail", 3), "journal line 4 detail must be a string, not 3"),
        (4, ("event", "job", None), "journal line 5 job must be a string, not None"),
        (5, ("job", "state", "active"), "journal line 6 holds no event or finished job"),
        (5, ("job", "id", "j2"), "job j2 is stored twice"),
        (2, "{not json", "JSONDecodeError"),
        (2, {"event": {}, "job": {}}, "journal line 3 is not a one-key object"),
        (2, {"note": "hello"}, "journal line 3 holds no event or finished job"),
        (2, [1, 2], "journal line 3 is not a one-key object"),
        (5, {"job": []}, "journal line 6 holds no event or finished job"),
        (5, {"job": ["j1", "done"]}, "journal line 6 holds no event or finished job"),
        (2, "1, 2", "a journal line holds other than one JSON value"),
    ], ids=["text-time", "bool-time", "int-detail", "null-job", "live-job", "duplicate-job",
            "not-json", "two-keys", "unknown-kind", "list", "empty-row", "short-row", "two-values"])
    def test_malformed_committed_line_exits_three(self, busy, capsys, n, change, message):
        journal = busy / "state.json.journal"
        lines = journal.read_text().splitlines()
        if isinstance(change, tuple):
            kind, key, value = change
            entry = json.loads(lines[n])
            entry[kind][key if kind == "event" else _at(key)] = value
            lines[n] = json.dumps(entry)
        else:
            lines[n] = change if isinstance(change, str) else json.dumps(change)
        _commit_journal(busy, "".join(line + "\n" for line in lines).encode())
        before = _files(busy)
        # only a command that reads the whole history sees the fault
        assert main(_manage_args(busy, "j1", "status")) == 3
        err = capsys.readouterr().err
        assert "incomplete or malformed" in err and message in err
        assert _files(busy) == before
        if change == ("job", "id", "j2"):
            # the merge keeps both rows, and `restore` refuses the site by name
            site = _load_state(_p(busy, "state.json"))
            assert [job[_at("id")] for job in site["jobs"]] == ["j2", "j2"]
            with pytest.raises(ValueError, match=f"^{message}$"):
                JobManager.restore(site)
        else:
            with pytest.raises(StateFileError, match="incomplete or malformed"):
                _load_state(_p(busy, "state.json"))

    def test_job_stored_twice_in_the_snapshot_exits_three(self, busy, capsys):
        state = busy / "state.json"
        data = state_slots.read(state)
        data["engine"]["jobs"] *= 2
        state_slots.write(state, json.dumps(data))
        before = _files(busy)
        assert main(["ledger", "--state", str(state)]) == 3
        assert "job j2 is stored twice" in capsys.readouterr().err
        assert _files(busy) == before

    def test_journal_bytes_ending_mid_line_exits_three(self, busy, capsys):
        journal = busy / "state.json.journal"
        text = journal.read_bytes()
        _commit_journal(busy, text[:-3])
        journal.write_bytes(text)
        assert main(_manage_args(busy, "j1", "status")) == 3
        assert "bytes end mid-line" in capsys.readouterr().err


class TestSlots:
    """Version 9: the snapshot lives in two slot files, ``state.json`` and
    ``state.json.alt``, each sealed by a header whose checksum covers its
    seq, length and payload.  A write overwrites the slot that does not
    hold the newest valid commit; a torn slot is skipped."""

    @pytest.fixture
    def three(self, site, capsys):
        """`_make_busy`'s site, and what the site and its ledger were at the
        commit before the newest: seq 2 in ``state.json.alt``, while the
        tick's seq 3 is in ``state.json``."""
        (site / "small.rsl").write_text('&(executable="/opt/vo/apps/transp")(maxcputime=300)\n')
        assert main(_submit_args(site, runtime="2")) == 0
        assert main(_submit_args(site, cred="bob.cred", rsl="small.rsl")) == 0
        capsys.readouterr()
        assert main(["ledger", "--state", _p(site, "state.json")]) == 0
        second = _load_state(_p(site, "state.json")), capsys.readouterr().out
        assert main(["tick", "--state", _p(site, "state.json"), "--dt", "5"]) == 0
        capsys.readouterr()
        assert state_slots.newest(site / "state.json")[:2] == (site / "state.json", 3)
        return site, second

    def test_writes_alternate_between_two_sealed_slots(self, site, capsys):
        state, alt = site / "state.json", site / "state.json.alt"
        assert main(_submit_args(site)) == 0
        assert not alt.exists()
        first = state.read_bytes()
        for seq, (written, kept) in enumerate([(alt, state), (state, alt), (alt, state)], 2):
            old = kept.read_bytes()
            assert main(["tick", "--state", str(state), "--dt", "1"]) == 0
            assert kept.read_bytes() == old  # the newest commit is never overwritten
            payload = (json.dumps(state_slots.read(written), sort_keys=True, separators=(",", ":"))
                       + "\n").encode()
            assert written.read_bytes() == state_slots.seal(seq, payload)
            assert state_slots.newest(state)[:2] == (written, seq)
        assert first.startswith(b"gridauth-state 9 1 ")
        assert not (site / "state.json.tmp").exists()

    @pytest.mark.parametrize("tear", [
        lambda data: data[: len(data) // 2],
        lambda data: data[:-2] + bytes([data[-2] ^ 1]) + data[-1:],
        lambda data: data + b" ",
        lambda data: data.replace(b"gridauth-state 9 3 ", b"gridauth-state 9 4 ", 1),
        lambda data: b"\0" * len(data),
    ], ids=["cut-mid-payload", "flipped-byte", "longer-than-its-length", "other-seq", "zeroed"])
    def test_a_torn_newest_slot_loads_the_commit_before_it(self, three, capsys, tear):
        site, (second, ledger) = three
        state = site / "state.json"
        alt = state_slots.slot_files(state)[1].read_bytes()
        state.write_bytes(tear(state.read_bytes()))
        assert _load_state(str(state)) == second
        assert main(["ledger", "--state", str(state)]) == 0
        assert capsys.readouterr().out == ledger
        # the next write overwrites the torn slot, at the seq after the one read
        assert main(["tick", "--state", str(state), "--dt", "1"]) == 0
        assert state_slots.newest(state)[:2] == (state, 3)
        assert (site / "state.json.alt").read_bytes() == alt

    def test_a_torn_older_slot_is_ignored_then_rewritten(self, three, capsys):
        site, _ = three
        state, alt = site / "state.json", site / "state.json.alt"
        before, newest = _load_state(str(state)), state.read_bytes()
        data = alt.read_bytes()
        alt.write_bytes(data[:-2] + bytes([data[-2] ^ 1]) + data[-1:])
        assert state_slots.unseal(alt.read_bytes()) is None
        assert _load_state(str(state)) == before
        assert main(_manage_args(site, "j1", "status")) == 0
        assert main(["tick", "--state", str(state), "--dt", "1"]) == 0
        assert state.read_bytes() == newest
        assert state_slots.newest(state)[:2] == (alt, 4)

    @pytest.mark.parametrize("slots", [
        ("torn", "torn"), ("torn", None), (None, "torn"), ("torn", "headerless"),
    ], ids=["both-torn", "only-state-torn", "only-alt-torn", "torn-and-headerless-alt"])
    def test_no_valid_slot_exits_three_and_writes_nothing(self, three, capsys, slots):
        site, _ = three
        for path, kind in zip(state_slots.slot_files(site / "state.json"), slots):
            data = path.read_bytes()
            if kind is None:
                path.unlink()
            elif kind == "torn":
                path.write_bytes(data[: len(data) // 2])
            else:  # a version-8 file is valid only as state.json
                path.write_bytes(state_slots.unseal(data)[1])
        before = _files(site)
        state = _p(site, "state.json")
        for argv in (
            ["ledger", "--state", state],
            ["tick", "--state", state, "--dt", "1"],
            _submit_args(site, cred="bob.cred", rsl="small.rsl"),
            _manage_args(site, "j2", "status", cred="bob.cred"),
            _manage_args(site, "j1", "status"),
        ):
            assert main(argv) == 3
            assert capsys.readouterr().err == f"state error: no slot of state file {state!r} is valid\n"
        assert _files(site) == before


class TestStoredRequest:
    """Versions 5 and later store each request as its attribute map.

    `restore` checks a map as `RslRequest` does; anything else, RSL text
    included, fails closed.
    """

    SMALL = {"executable": "/opt/vo/apps/transp", "maxcputime": 300}

    @pytest.fixture
    def busy(self, site, capsys):
        _make_busy(site)
        capsys.readouterr()
        return site

    def _store_request(self, site, value) -> None:
        """Store ``value`` as the request of the live job, j2."""
        state = site / "state.json"
        data = state_slots.read(state)
        assert data["engine"]["jobs"][0][_at("id")] == "j2"
        data["engine"]["jobs"][0][_at("request")] = value
        state_slots.write(state, json.dumps(data))

    def test_requests_are_stored_as_attribute_maps(self, busy):
        data = state_slots.read(busy / "state.json")
        assert data["engine"]["jobs"][0][_at("request")] == self.SMALL
        journal = (busy / "state.json.journal").read_text().splitlines()
        assert json.loads(journal[-1])["job"][_at("request")] == {
            "count": 1, "executable": "/opt/vo/apps/transp", "maxcputime": 600
        }

    @pytest.mark.parametrize("value, message", [
        (300, "ValueError: job j2 request must be an attribute map, not 300"),
        (None, "ValueError: job j2 request must be an attribute map, not None"),
        (["&(count=1)"], "job j2 request must be an attribute map, not ['&(count=1)']"),
        ({}, "EmptyRequestError: request has no attributes"),
        ({"count": True}, "attribute 'count': boolean values are not part of the value model"),
        ({"count": 1.0}, "attribute 'count': unsupported value type float"),
        ({"executable": {"path": "/bin/date"}}, "attribute 'executable': unsupported value type dict"),
        ({"count": 2**63}, "attribute 'count': integer out of signed 64-bit range"),
        ({"count": -(2**63) - 1}, "attribute 'count': integer out of signed 64-bit range"),
        ({"1count": 1}, "attribute '1count': invalid attribute name"),
        ({"\u212aount": 1}, "invalid attribute name"),  # the Kelvin sign lowers to 'k'
        ({"queue": ["a", "b"]}, "attribute 'queue': only 'arguments' may hold a string list"),
        ({"arguments": [1]}, "attribute 'arguments': 'arguments' entries must be strings"),
        ({"COUNT": 2, "count": 1}, "DuplicateAttributeError: duplicate attribute 'count'"),
        ({"count": 0}, "attribute 'count': must be a positive integer"),
        ('&(count=1)(count=2)',
         "ValueError: job j2 request must be an attribute map, not '&(count=1)(count=2)'"),
    ], ids=["int", "null", "list", "empty-map", "bool", "float", "nested-map", "past-int64",
            "below-int64", "bad-name", "non-ascii-name", "list-not-arguments", "int-argument",
            "upper-and-lower-name", "zero-count", "bad-text"])
    def test_bad_request_fails_closed(self, busy, capsys, value, message):
        self._store_request(busy, value)
        before = _files(busy)
        for argv in (
            ["ledger", "--state", _p(busy, "state.json")],
            ["tick", "--state", _p(busy, "state.json"), "--dt", "1"],
            _manage_args(busy, "j2", "status", cred="bob.cred"),
            _submit_args(busy, cred="bob.cred"),
        ):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert "incomplete or malformed" in err and message in err
        assert _files(busy) == before

    def test_text_request_in_version_7_is_refused(self, tmp_path, capsys):
        """Only the upgrade step of a version-4 or older file parses RSL
        text; the version-4 fixture covers that step.  (The ``bad-text``
        case above is the current version's.)"""
        for path in STATE_V7.iterdir():
            shutil.copy(path, tmp_path / path.name)
        state = tmp_path / "state.json"
        data = state_slots.read(state)
        text = '&(MaxCpuTime=300)( executable = "/opt/vo/apps/transp" )'
        assert data["engine"]["jobs"][1]["id"] == "j2"
        data["engine"]["jobs"][1]["request"] = text
        state_slots.write(state, json.dumps(data))
        before = _files(tmp_path)
        assert main(_manage_args(tmp_path, "j2", "status", cred="carol.cred")) == 3
        assert capsys.readouterr().err.endswith(
            f"ValueError: job j2 request must be an attribute map, not {text!r}\n")
        assert _files(tmp_path) == before


@pytest.mark.parametrize("case", ["slot-is-a-directory", "journal-name-too-long",
                                  "journal-is-a-directory", "new-slot-is-a-directory"])
def test_os_error_on_a_state_file_exits_three(tmp_path, capsys, case):
    """An OS error reading a slot or the journal, or writing a slot, is a
    state error that names the file, and the committed site stays as it
    was.  A directory in a file's place, or a name one suffix too long,
    stands in for an unreadable file: permissions would not stop root."""
    fixture = STATE_V8 if case == "new-slot-is-a-directory" else STATE_V9
    name = "s" * 245 + ".json" if case == "journal-name-too-long" else "state.json"
    for path in fixture.iterdir():  # the journal's long name is the fault
        if not (case == "journal-name-too-long" and path.name.endswith(".journal")):
            shutil.copy(path, tmp_path / path.name.replace("state.json", name))
    state = tmp_path / name
    ledger = ["ledger", "--state", str(state)]
    argv, what = ledger, f"cannot read journal {str(state) + '.journal'!r}"
    if case == "slot-is-a-directory":
        (tmp_path / "state.json.alt").unlink()
        (tmp_path / "state.json.alt").mkdir()
        what = f"cannot read state file {str(state) + '.alt'!r}"
    elif case == "journal-is-a-directory":
        # a finished job's manage opens the journal, whose size (a directory
        # holding a file) covers the one byte the snapshot names
        (tmp_path / "state.json.journal").unlink()
        (tmp_path / "state.json.journal").mkdir()
        (tmp_path / "state.json.journal" / "x").write_text("x")
        state_slots.edit(state, lambda data: data.update(journal_bytes=1))
        argv = _manage_args(tmp_path, "j3", "status", cred="dave.cred")
    elif case == "new-slot-is-a-directory":
        # a version-8 file has no second slot, so the first write creates one
        assert main(ledger) == 0
        (tmp_path / "state.json.tmp").mkdir()
        argv, what = ["tick", "--state", str(state), "--dt", "1"], f"cannot write state file {str(state)!r}"
    printed, before = capsys.readouterr().out, _files(tmp_path)
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(f"state error: {what}: ")
    if case == "new-slot-is-a-directory":  # the journal holds an uncommitted tail
        assert main(ledger) == 0
        assert capsys.readouterr().out == printed
        assert _files(tmp_path)["state.json"] == before["state.json"]
    else:
        assert _files(tmp_path) == before


def _commit_journal(site, text: bytes) -> None:
    """Write ``text`` as the journal and make the snapshot cover all of it."""
    (site / "state.json.journal").write_bytes(text)
    state = site / "state.json"
    data = state_slots.read(state)
    data["journal_bytes"] = len(text)
    state_slots.write(state, json.dumps(data))


class _Crash(BaseException):
    """A process dying mid-write: no handler in the CLI catches it."""


class TestCrashDuringWrite:
    """A crash at any point of a write loads to the site before or after it."""

    TICK = ["tick", "--dt", "500"]  # j2 finishes: new events and a job record

    @pytest.fixture
    def busy(self, site, capsys):
        _make_busy(site)
        capsys.readouterr()
        return site

    def _tick(self, site):
        return main(self.TICK[:1] + ["--state", _p(site, "state.json")] + self.TICK[1:])

    def test_every_cut_of_the_journal_tail_loads_to_before(self, busy, capsys):
        state, journal = busy / "state.json", busy / "state.json.journal"
        slot = busy / "state.json.alt"  # the older slot, which the tick rewrites in place
        newest, old_slot, old_journal = state.read_bytes(), slot.read_bytes(), journal.read_bytes()
        before = _load_state(str(state))
        assert self._tick(busy) == 0
        after = _load_state(str(state))
        new_slot, new_journal = slot.read_bytes(), journal.read_bytes()
        assert state.read_bytes() == newest
        assert before != after and new_journal.startswith(old_journal)
        # the tick ends j2, so the new record is the shorter one
        assert len(new_slot) < len(old_slot)
        tail = new_journal[len(old_journal):]
        # until the slot is synced whole, the newest slot is the old commit:
        # the journal holds any prefix of the new lines...
        slot.write_bytes(old_slot)
        for cut in range(len(tail) + 1):
            journal.write_bytes(old_journal + tail[:cut])
            assert _load_state(str(state)) == before
        # ...and the rewritten slot any prefix of its new bytes, over the old
        # ones or alone, or all of them before the file is cut to their length
        torn = [new_slot[:cut] + old_slot[cut:] for cut in range(len(new_slot))]
        torn += [new_slot[:cut] for cut in range(len(new_slot))]
        torn.append(new_slot + old_slot[len(new_slot):])
        for data in torn:
            slot.write_bytes(data)
            assert _load_state(str(state)) == before
        # once it is whole, it covers the whole tail
        slot.write_bytes(new_slot)
        assert _load_state(str(state)) == after
        # a crashed write redone from the old commit writes the same bytes
        slot.write_bytes(torn[len(new_slot) // 2])
        journal.write_bytes(old_journal + tail[: len(tail) // 2])
        assert self._tick(busy) == 0
        assert (state.read_bytes(), slot.read_bytes(), journal.read_bytes()) == (
            newest, new_slot, new_journal)

    #: the calls to os.fsync and os.replace that each write makes, and from
    #: which one on a crash leaves the new site.  In place (busy's older
    #: slot): fsync the journal, fsync the slot, which already holds the new
    #: bytes.  Creating the slot file (after a version-8 file):  fsync the
    #: journal, fsync the tmp, replace, fsync the directory.  A new site also
    #: creates the journal and fsyncs the directory after it.
    CALLS = {"in-place": (2, 1), "version-8": (4, 3), "new-site": (5, 4)}

    @pytest.mark.parametrize("kind, calls", [
        *[pytest.param("version-8", n, id=f"after-{n}-calls") for n in range(4)],
        *[pytest.param("in-place", n, id=f"in-place-after-{n}-calls") for n in range(2)],
        *[pytest.param("new-site", n, id=f"new-site-after-{n}-calls") for n in range(5)],
    ])
    def test_crash_at_each_sync_or_replace(self, site, tmp_path_factory, capsys, monkeypatch,
                                          kind, calls):
        def prepare(d: Path) -> list:
            """Set up ``kind``'s site in ``d`` and return its write's argv."""
            if kind == "in-place":
                _make_busy(d)
            elif kind == "version-8":
                for path in STATE_V8.iterdir():
                    shutil.copy(path, d / path.name)
            if kind == "new-site":
                return _submit_args(d)
            return self.TICK[:1] + ["--state", _p(d, "state.json")] + self.TICK[1:]

        def run(argv, crash_at=None) -> list:
            """Run ``argv`` with each fsync and replace counted, raising
            `_Crash` in place of call number ``crash_at``; the calls made."""
            made = []

            def counted(real):
                def call(*args):
                    if len(made) == crash_at:
                        raise _Crash
                    made.append(real)
                    return real(*args)
                return call

            with monkeypatch.context() as patch:
                for name in ("fsync", "replace"):
                    patch.setattr(os, name, counted(getattr(os, name)))
                if crash_at is None:
                    assert main(argv) == 0
                else:
                    with pytest.raises(_Crash):
                        main(argv)
            return made

        # the same write, whole, on a twin of the site gives the site after it
        twin = tmp_path_factory.mktemp("twin")
        for path in site.iterdir():
            shutil.copy(path, twin / path.name)
        total, first_after = self.CALLS[kind]
        assert len(run(prepare(twin))) == total
        after = _load_state(_p(twin, "state.json"))
        argv = prepare(site)
        state = _p(site, "state.json")
        before = _load_state(state)
        run(argv, crash_at=calls)
        assert _load_state(state) == (before if calls < first_after else after)
        if calls < first_after:
            assert main(argv) == 0
            assert _load_state(state) == after


class TestCliMatchesEngine:
    """Random submit, tick and manage sequences through ``main`` give the
    outputs, exit codes and site of the same calls on one in-process engine."""

    USERS = {"alice": ALICE_CRED, "bob": BOB_CRED}
    ACTIONS = ("status", "suspend", "resume", "cancel", "set_priority")

    #: a manage picks a known job by index, or none for index 0, and is
    #: sent by that job's owner unless it names a user
    COMMANDS = st.one_of(
        st.tuples(st.just("submit"), st.sampled_from(sorted(USERS)), st.integers(1, 20),
                  st.sampled_from((5, 50, 200))),
        st.tuples(st.just("tick"), st.integers(1, 20)),
        st.tuples(st.just("manage"), st.sampled_from(("owner", "owner") + tuple(USERS)),
                  st.integers(0, 7), st.sampled_from(ACTIONS)),
        st.tuples(st.just("ledger")),
    )

    @staticmethod
    def _cli(base: Path, command) -> list:
        state = ["--state", str(base / "state.json")]
        policies = ["--resource-policy", str(base / "site.pol"),
                    "--vo-policy", str(base / "fusion.pol"), "--map", str(base / "gridmap")]
        kind = command[0]
        if kind == "submit":
            _, user, runtime, maxcpu = command
            (base / "job.rsl").write_text(
                f'&(executable="/opt/vo/apps/transp")(count=1)(maxcputime={maxcpu})\n')
            return ["submit"] + state + policies + [
                "--cred", str(base / f"{user}.cred"), "--rsl", str(base / "job.rsl"),
                "--runtime", str(runtime), "--pool", "dyn00,dyn01"]
        if kind == "tick":
            return ["tick"] + state + ["--dt", str(command[1])]
        if kind == "ledger":
            return ["ledger"] + state
        _, user, job_id, action = command
        return ["manage"] + state + policies + [
            "--cred", str(base / f"{user}.cred"), "--job", job_id, "--action", action,
            "--priority", "3"]

    @staticmethod
    def _model(engine: JobManager, creds: dict, started: bool, command) -> tuple:
        kind = command[0]
        if kind in ("tick", "ledger") and not started:
            return 3, ""
        try:
            if kind == "submit":
                _, user, runtime, maxcpu = command
                rsl = f'&(executable="/opt/vo/apps/transp")(count=1)(maxcputime={maxcpu})\n'
                job = engine.job_record(
                    engine.gatekeeper_submit(creds[user], rsl, SimProfile(runtime=runtime)))
                return 0, f"job={job.id} state={job.state.value} reserved={job.reserved}\n"
            if kind == "tick":
                return 0, "".join(event.line + "\n" for event in engine.tick(command[1]))
            if kind == "ledger":
                report = engine.ledger_report()
                return 0, report + "\n" if report else ""
            _, user, job_id, action = command
            job = engine.manage(job_id, JobAction(action), creds[user], priority=3)
        except (DeniedByPolicyError, QuotaExceededError, NoAccountsAvailableError,
                IllegalTransitionError):
            return 1, ""
        except UnknownJobError:
            return 2, ""
        if action == "status":
            return 0, (f"job={job.id} state={job.state.value} owner={job.owner} "
                       f"consumed={job.consumed} reserved={job.reserved} "
                       f"priority={job.priority}\n")
        return 0, f"job={job.id} state={job.state.value}\n"

    @given(commands=st.lists(COMMANDS, min_size=1, max_size=14))
    @settings(max_examples=100, deadline=None)
    def test_cli_matches_one_engine(self, commands):
        creds = {user: load_credential(text) for user, text in self.USERS.items()}
        engine = JobManager(
            resource_policy=parse_policy(SITE_POL),
            vo_policies=[parse_policy(FUSION_POL)],
            gridmap=GridMapFile({"/O=Grid/CN=alice": "alice_l"}),
            pool=DynamicAccountPool(["dyn00", "dyn01"]),
        )
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            for name, text in {"site.pol": SITE_POL, "fusion.pol": FUSION_POL,
                               "alice.cred": ALICE_CRED, "bob.cred": BOB_CRED,
                               "gridmap": '"/O=Grid/CN=alice" alice_l\n'}.items():
                (base / name).write_text(text)
            state = base / "state.json"
            owners = {cred.subject: user for user, cred in creds.items()}
            for command in commands:
                if command[0] == "manage":
                    _, user, n, action = command
                    ids = list(engine.jobs)
                    job_id = ids[n % len(ids)] if ids and n else "j99"
                    if user == "owner":
                        user = owners[engine.jobs[job_id].owner] if job_id in ids else "alice"
                    command = ("manage", user, job_id, action)
                expected = self._model(engine, creds, state.exists(), command)
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(self._cli(base, command))
                assert (code, out.getvalue()) == expected, command
                if state.exists():
                    assert _load_state(str(state)) == engine.snapshot(), command
                else:
                    assert not engine.events


class TestIssueCap:
    def test_token_to_file_and_push_check(self, site, capsys):
        cap = _p(site, "alice.cap")
        code = main([
            "issue-cap",
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "alice.cred"),
            "--vo-key", f"fusion={KEY_HEX}",
            "--expiry", "1000000",
            "--cap", cap,
        ])
        assert code == 0
        assert (site / "alice.cap").read_text().endswith("\n")
        code = main([
            "check",
            "--resource-policy", _p(site, "site.pol"),
            "--cap", cap,
            "--vo-key", f"fusion={KEY_HEX}",
            "--cred", _p(site, "alice.cred"),
            "--rsl", _p(site, "job.rsl"),
            "--action", "start",
        ])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == "permit"

    def test_token_to_stdout(self, site, capsys):
        code = main([
            "issue-cap",
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "alice.cred"),
            "--vo-key", f"fusion={KEY_HEX}",
            "--expiry", "1000000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("subject: /O=Grid/CN=alice\n")
        assert "mac: " in out

    def test_no_applicable_blocks_exits_one(self, site, capsys):
        (site / "eve.cred").write_text("subject: /O=Grid/CN=eve\nvo: fusion\nexpiry: 99\n")
        code = main([
            "issue-cap",
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "eve.cred"),
            "--vo-key", f"fusion={KEY_HEX}",
            "--expiry", "1000000",
        ])
        assert code == 1

    @pytest.mark.parametrize("case", ["key-of-another-vo", "cap-is-a-directory"])
    def test_missing_key_or_unwritable_cap_exits_two(self, site, capsys, case):
        cap = site / "alice.cap"
        vo = "astro" if case == "key-of-another-vo" else "fusion"
        if case == "cap-is-a-directory":  # a file without write permission would not stop root
            cap.mkdir()
        assert main([
            "issue-cap",
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "alice.cred"),
            "--vo-key", f"{vo}={KEY_HEX}",
            "--expiry", "1000000",
            "--cap", str(cap),
        ]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        if case == "key-of-another-vo":
            assert err == "error: --vo-key must provide the key for vo 'fusion'\n"
            assert not cap.exists()
        else:
            assert err.startswith(f"error: cannot write {str(cap)!r}: ")
            assert cap.is_dir()

    def test_a_capability_may_not_outlive_its_credential(self, site, capsys):
        argv = [
            "issue-cap",
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "alice.cred"),
            "--vo-key", f"fusion={KEY_HEX}",
            "--cap", _p(site, "alice.cap"),
        ]
        assert main([*argv, "--expiry", "1900000001"]) == 2
        assert capsys.readouterr() == (
            "", "error: capability would outlive its credential: 1900000001 > 1900000000\n"
        )
        assert not (site / "alice.cap").exists()
        assert main([*argv, "--expiry", "1900000000"]) == 0
        assert "expiry: 1900000000\n" in (site / "alice.cap").read_text()

    def test_push_submission_via_state(self, site, capsys):
        cap = _p(site, "alice.cap")
        main([
            "issue-cap",
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "alice.cred"),
            "--vo-key", f"fusion={KEY_HEX}",
            "--expiry", "1000000",
            "--cap", cap,
        ])
        capsys.readouterr()
        code = main([
            "submit",
            "--state", _p(site, "state.json"),
            "--resource-policy", _p(site, "site.pol"),
            "--cap", cap,
            "--vo-key", f"fusion={KEY_HEX}",
            "--cred", _p(site, "alice.cred"),
            "--rsl", _p(site, "job.rsl"),
            "--map", _p(site, "gridmap"),
            "--runtime", "10",
        ])
        assert code == 0
        assert capsys.readouterr().out == "job=j1 state=pending reserved=600\n"

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_token_file_with_other_line_ends_exits_two(self, site, capsys, ending):
        cap = site / "alice.cap"
        assert main([
            "issue-cap",
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "alice.cred"),
            "--vo-key", f"fusion={KEY_HEX}",
            "--expiry", "1000000",
            "--cap", str(cap),
        ]) == 0
        (site / "other.cap").write_bytes(cap.read_bytes().replace(b"\n", ending.encode()))
        push = ["--cap", _p(site, "other.cap"), "--vo-key", f"fusion={KEY_HEX}"]
        assert main([
            "check",
            "--resource-policy", _p(site, "site.pol"),
            *push,
            "--cred", _p(site, "alice.cred"),
            "--rsl", _p(site, "job.rsl"),
            "--action", "start",
        ]) == 2
        assert main(_submit_args(site)) == 0
        files = sorted(site.glob("state.json*"))
        before = [path.read_bytes() for path in files]
        pushed = _submit_args(site)
        pushed[pushed.index("--vo-policy"):pushed.index("--vo-policy") + 2] = push
        assert main(pushed) == 2
        managed = _manage_args(site, "j1", "cancel")
        managed[managed.index("--vo-policy"):managed.index("--vo-policy") + 2] = push
        assert main(managed) == 2
        assert sorted(site.glob("state.json*")) == files
        assert [path.read_bytes() for path in files] == before
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: token is not in canonical form"] * 3

    def test_bad_vo_key_exits_two(self, site):
        code = main([
            "issue-cap",
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "alice.cred"),
            "--vo-key", "fusion=nothex",
            "--expiry", "1000000",
        ])
        assert code == 2

    @pytest.mark.parametrize("other", ["cd" * 32, KEY_HEX], ids=["other-key", "same-key"])
    def test_two_keys_for_one_vo_exit_two(self, site, capsys, other):
        """Neither the first nor the last of two keys for one VO wins."""
        cap = _p(site, "alice.cap")
        one = ["--vo-key", f"fusion={KEY_HEX}"]
        assert main(["issue-cap", "--vo-policy", _p(site, "fusion.pol"), "--cred",
                     _p(site, "alice.cred"), *one, "--expiry", "1000000", "--cap", cap]) == 0
        assert main(_submit_args(site)) == 0
        capsys.readouterr()
        before = _files(site)
        push = ["--resource-policy", _p(site, "site.pol"), "--cap", cap,
                "--cred", _p(site, "alice.cred")]
        for keys in ([*one, "--vo-key", f"fusion={other}"], ["--vo-key", f"fusion={other}", *one]):
            for argv in (
                ["check", *push, *keys, "--rsl", _p(site, "job.rsl"), "--action", "start"],
                ["submit", "--state", _p(site, "state.json"), *push, *keys,
                 "--rsl", _p(site, "job.rsl"), "--runtime", "10"],
                ["manage", "--state", _p(site, "state.json"), *push, *keys,
                 "--job", "j1", "--action", "status"],
                ["issue-cap", "--vo-policy", _p(site, "fusion.pol"), "--cred",
                 _p(site, "alice.cred"), *keys, "--expiry", "1000000"],
            ):
                assert main(argv) == 2, argv[0]
                assert capsys.readouterr() == ("", "error: --vo-key for 'fusion' is given twice\n")
        assert _files(site) == before


class TestScenarioCommand:
    @pytest.mark.parametrize(
        "script",
        ["scenario1.script", "scenario2.script", "scenario3.script", "scenario4-push.script"],
    )
    def test_bundled_scripts_pass(self, script, capsys):
        assert main(["scenario", str(SCENARIOS / script)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "-> ok" in out

    def test_failing_expectation_exits_one(self, tmp_path, capsys):
        script = tmp_path / "s.script"
        script.write_text(
            "load-policy site {0}\n"
            "load-cred alice {1}\n"
            "submit a1 cred=alice rsl='&(executable=\"/x\")' runtime=5\n"
            "expect a1 ok\n".format(
                SCENARIOS / "policies" / "s1-site.pol",
                SCENARIOS / "creds" / "s1-alice.cred",
            )
        )
        assert main(["scenario", str(script)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_script_error_exits_two(self, tmp_path, capsys):
        script = tmp_path / "s.script"
        script.write_text("frobnicate everything\n")
        assert main(["scenario", str(script)]) == 2
        assert "script error" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, key", [("memroy=500", "memroy"), ("disk=9", "disk")])
    def test_unknown_submit_key_exits_two(self, tmp_path, capsys, extra, key):
        """A misspelt or retired key would otherwise be dropped: with
        ``memory=500`` this job is killed at its 10 MB cap."""
        script = tmp_path / "s.script"
        script.write_text(
            f"load-policy site {SCENARIOS / 'policies' / 's1-site.pol'}\n"
            f"load-policy fusion {SCENARIOS / 'policies' / 's1-fusion.pol'}\n"
            f"load-cred alice {SCENARIOS / 'creds' / 's1-alice.cred'}\n"
            "submit a1 cred=alice "
            "rsl='&(executable=\"/opt/vo/apps/transp\")(maxcputime=600)(maxmemory=10)' "
            f"runtime=5 {extra}\n"
            "tick 10\n"
            "expect job a1 state=done\n"
        )
        assert main(["scenario", str(script)]) == 2
        assert capsys.readouterr().err == (
            f"script error: step at line 4: unknown key {key!r}; "
            "submit takes cred, rsl, rsl-file, runtime, memory, cap\n"
        )
        script.write_text(script.read_text().replace(extra, "memory=500"))
        assert main(["scenario", str(script)]) == 1
        assert "expect job a1 state=done -> FAIL (got failed)" in capsys.readouterr().out

    def test_unknown_key_in_other_steps_exits_two(self, tmp_path, capsys):
        script = tmp_path / "s.script"
        for step in ("manage m1 job=a1 action=status cred=alice prio=3",
                     "issue-cap c1 policy=fusion cred=alice key=00 expiry=9 ttl=5",
                     "expect job a1 status=done"):
            script.write_text(
                f"load-policy site {SCENARIOS / 'policies' / 's1-site.pol'}\n"
                f"load-policy fusion {SCENARIOS / 'policies' / 's1-fusion.pol'}\n"
                f"load-cred alice {SCENARIOS / 'creds' / 's1-alice.cred'}\n"
                "submit a1 cred=alice "
                "rsl='&(executable=\"/opt/vo/apps/transp\")(maxcputime=600)' runtime=5\n"
                f"{step}\n"
            )
            assert main(["scenario", str(script)]) == 2
            assert "script error: step at line 5: unknown key" in capsys.readouterr().err

    def test_load_policy_after_the_site_is_built_exits_two(self, tmp_path, capsys):
        """The site is built from the policies loaded before its first use,
        so a later one would go unread: the second submit was denied with
        ``no policy document for vo 'fusion'``."""
        submit = "rsl='&(executable=\"/opt/vo/apps/transp\")(maxcputime=600)' runtime=5"
        script = tmp_path / "s.script"
        script.write_text(
            f"load-policy site {SCENARIOS / 'policies' / 's1-site.pol'}\n"
            f"load-cred alice {SCENARIOS / 'creds' / 's1-alice.cred'}\n"
            f"submit a1 cred=alice {submit}\n"
            f"load-policy fusion {SCENARIOS / 'policies' / 's1-fusion.pol'}\n"
            f"submit a2 cred=alice {submit}\n"
            "expect a2 ok\n"
        )
        assert main(["scenario", str(script)]) == 2
        assert capsys.readouterr().err == (
            "script error: step at line 4: load-policy must precede the first step using the site\n"
        )

    def test_issue_cap_past_the_credentials_expiry_is_a_script_error(self, tmp_path, capsys):
        script = tmp_path / "s.script"
        script.write_text(
            f"load-policy fusion {SCENARIOS / 'policies' / 's1-fusion.pol'}\n"
            f"load-cred alice {SCENARIOS / 'creds' / 's1-alice.cred'}\n"
            f"issue-cap c1 policy=fusion cred=alice key={KEY_HEX} expiry=1900000001\n"
            "expect c1 ok\n"
        )
        assert main(["scenario", str(script)]) == 2
        assert capsys.readouterr() == ("", "script error: step at line 3: capability would "
                                       "outlive its credential: 1900000001 > 1900000000\n")

    def test_two_vo_documents_of_one_name_are_a_script_error(self, tmp_path, capsys):
        script = tmp_path / "s.script"
        script.write_text(
            f"load-policy site {SCENARIOS / 'policies' / 's1-site.pol'}\n"
            f"load-policy fusion {SCENARIOS / 'policies' / 's1-fusion.pol'}\n"
            f"load-policy mgmt {SCENARIOS / 'policies' / 's3-fusion.pol'}\n"
            "tick 1\n"
        )
        assert main(["scenario", str(script)]) == 2
        assert capsys.readouterr() == (
            "", "script error: step at line 4: two vo documents are named 'fusion'\n"
        )

    def test_a_key_registered_after_the_site_is_built_reaches_it(self, tmp_path, capsys):
        """The site copied the keys when it was built, so it denied this
        token ``UnknownIssuer: no key registered for vo 'fusion'``."""
        script = tmp_path / "s.script"
        script.write_text(
            f"load-policy site {SCENARIOS / 'policies' / 's1-site.pol'}\n"
            f"load-policy fusion {SCENARIOS / 'policies' / 's1-fusion.pol'}\n"
            f"load-cred alice {SCENARIOS / 'creds' / 's1-alice.cred'}\n"
            "tick 1\n"
            f"issue-cap c1 policy=fusion cred=alice key={KEY_HEX} expiry=1000000\n"
            "submit p1 cred=alice rsl='&(executable=\"/x\")(maxcputime=60)' runtime=5 cap=c1\n"
            "expect p1 ok\n"
        )
        assert main(["scenario", str(script)]) == 0
        assert capsys.readouterr().out == "step 7: expect p1 ok -> ok\n"

    def test_empty_script_passes_with_empty_report(self, tmp_path, capsys):
        script = tmp_path / "empty.script"
        script.write_text("# nothing to do\n")
        assert main(["scenario", str(script)]) == 0
        assert capsys.readouterr().out == ""

    def test_scenario_runs_are_deterministic(self, capsys):
        main(["scenario", str(SCENARIOS / "scenario1.script")])
        first = capsys.readouterr().out
        main(["scenario", str(SCENARIOS / "scenario1.script")])
        assert capsys.readouterr().out == first
