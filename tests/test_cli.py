"""CLI integration tests: every subcommand and every exit-code path."""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest

from gridauth.cli import main
from gridauth.jobmgr import JobManager

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
STATE_V1 = Path(__file__).resolve().parent / "data" / "state-v1"
STATE_V2 = Path(__file__).resolve().parent / "data" / "state-v2"

SITE_POL = """\
policy "site" source resource {
  trust vo "fusion";
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


class TestCheck:
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
        assert not (site / "state.json").exists() or json.loads(
            (site / "state.json").read_text()
        )["engine"]["jobs"] == []

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
        data = json.loads(state.read_text())
        del data["engine"]["jobs"][0]["owner"]
        state.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["tick", "--state", str(state), "--dt", "1"]) == 3
        assert "KeyError: 'owner'" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [0, 4])
    def test_unsupported_state_version_exits_three(self, site, capsys, version):
        assert main(_submit_args(site)) == 0
        state = site / "state.json"
        data = json.loads(state.read_text())
        data["version"] = version
        state.write_text(json.dumps(data))
        assert main(["ledger", "--state", str(state)]) == 3
        assert f"version {version} unsupported" in capsys.readouterr().err

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
        assert json.loads((v1 / "state.json").read_text())["version"] == 1

        assert main(["tick", "--state", state, "--dt", "4"]) == 0
        assert capsys.readouterr().out == (
            "t=4 job=j5 event=activate detail=state=active\n"
            "t=7 job=j5 event=done detail=state=done consumed=3 refunded=47\n"
        )
        data = json.loads((v1 / "state.json").read_text())
        assert data["version"] == 3
        for job in data["engine"]["jobs"]:
            assert not self.DROPPED_JOB_KEYS & job.keys()
        assert "lease_ttl" not in data["engine"]
        assert data["engine"]["pool"] == {"free": ["dyn01", "dyn02"], "leased": ["j2"]}
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
        ],
        ids=["unknown-lease-job", "free-and-leased", "leased-twice", "lease-on-other-account",
             "ledger-lacks-vo", "ledger-lacks-member", "done-lease-job", "text-consumed",
             "null-priority", "float-runtime", "bool-clock", "text-lease-ttl", "text-expiry"],
    )
    def test_malformed_state_fails_closed_at_tick(self, v1, capsys, path, value, message):
        state = v1 / "state.json"
        data = json.loads(state.read_text())
        entry = data["engine"]
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        state.write_text(json.dumps(data))
        before = state.read_bytes()
        assert main(["tick", "--state", str(state), "--dt", "1"]) == 3
        err = capsys.readouterr().err
        assert "incomplete or malformed: ValueError" in err and message in err
        assert state.read_bytes() == before

    def test_restore_keeps_everything_but_the_dropped_keys(self):
        engine = json.loads((STATE_V1 / "state.json").read_text())["engine"]
        manager = JobManager.restore(engine)
        assert manager.job_record("j2").jobtag == "fusion-prod"
        for job in engine["jobs"]:
            for key in self.DROPPED_JOB_KEYS:
                del job[key]
        del engine["lease_ttl"]
        engine["pool"]["leased"] = list(engine["pool"]["leased"])
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
        assert json.loads((v2 / "state.json").read_text())["version"] == 2

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

    def test_next_write_is_version_3(self, v2):
        state = v2 / "state.json"
        assert main(["tick", "--state", str(state), "--dt", "1"]) == 0
        text = state.read_text()
        data = json.loads(text)
        assert data["version"] == 3
        assert data["engine"]["pool"] == {"free": ["dyn01"], "leased": ["j2", "j4"]}
        assert "lease_ttl" not in text and "expires_at" not in text


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

    def test_bad_vo_key_exits_two(self, site):
        code = main([
            "issue-cap",
            "--vo-policy", _p(site, "fusion.pol"),
            "--cred", _p(site, "alice.cred"),
            "--vo-key", "fusion=nothex",
            "--expiry", "1000000",
        ])
        assert code == 2


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
