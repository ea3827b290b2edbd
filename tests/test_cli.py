import hashlib
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cycfit
from cycfit import classgroup, cli, combined
from cycfit.cli import _sanitize, build_parser, main, run_verify
from cycfit.errors import InsufficientPrecision
from cycfit.groupring import principal_ideal
from test_acceptance import corpus_discriminants


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_flagship_exit_zero(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "-p", "3", "-D", "257", "--annihilation", "1", "--quiet",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"] == {"0": "MATCH", "1": "MATCH", "2": "MATCH"}
    assert report["status"] == "OK"
    assert report["oracle"]["p_part_divisors"] == [1]
    assert report["fitting"]["0"]["p_valuation"] == 1
    assert report["fitting_minor_cross_check"] == {"0": True, "1": True, "2": True}


def test_verify_trivial_p_part_field(capsys):
    # first fundamental discriminant with chi(3) != 1 and trivial 3-part
    code, out, _ = run_cli(capsys, [
        "verify", "-D", "5", "--annihilation", "0", "--quiet",
    ])
    assert code == 0
    rep = json.loads(out)
    assert rep["oracle"]["p_part_divisors"] == []
    assert rep["verdicts"]["0"] == "MATCH"
    assert rep["fitting"]["0"]["unit"]
    assert rep["cyclotomic"]["0"]["ideal_rows"] == [[1]]


def test_reports_are_byte_identical(capsys):
    argv = ["verify", "-D", "257", "--annihilation", "0", "--quiet", "--seed", "5"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


# sha256 of stdout and the exit code of each command line, and one digest
# over the criterion-2 reports of the corpus in ascending D (each report
# hashed as its stdout line).  A change that alters any report must
# re-record this table.  CI's console step runs every row of this table and
# of BAD_INPUTS through the installed `cycfit`, each in a fresh process.
PINNED_REPORTS = [
    ("verify -p 3 -D 5 --quiet", 0,
     "8cb6d7847eac6e8fe0176e0a4b292d7e2f126ac46de73c03017a6f93235c3a9c"),
    ("verify -p 3 -D 8 --quiet", 0,
     "cfe08ab4277c088aa203302bb8947800f8e47a1e0a5dcc24ecade972f4f784bc"),
    ("verify -p 3 -D 257 --quiet", 0,
     "c9c04c554382748f5c28893fa163aca26be01feb7310b16ed7a72cf161b9b1f8"),
    ("verify -p 3 -D 473 --quiet", 0,
     "0ca71c372aa2f86c3d3a6c3a0feec07c137f354a27abf60f31e43d275d054685"),
    ("verify -p 3 -D 785 --quiet", 0,
     "61ecfb82c7fe52697c9c1ea2e3dc31e94fcc005eed54bd5c2a74d5afcf40a7e2"),
    ("verify -p 3 -D 761 --quiet", 0,
     "36eb83643b00ffcd8409f6d1b5c6c50a27570274238a744e73071b50eaa32abc"),
    ("verify -p 3 -D 1229 --quiet", 0,
     "73fda1da82ae5ab2c7563a36f21c3282a493c4afd698d079c38a6739fa3166e3"),
    ("verify -p 3 -D 1937 --quiet", 0,
     "0531a0d31a1572b6c88fbcc0bb415cecda953c2715ad72631dafbb123315a3f9"),
    ("verify -p 3 -D 3137 --quiet", 0,
     "5914344fafe62abe60d83d728679f87780362ac5f2cb9bc3c8ed426a138418b5"),
    ("verify -p 3 -D 4409 --quiet", 0,
     "7d254f16578f88c9fdbfb528afcf41c0b102af0bf48baa713691d564802e2611"),
    ("verify -p 3 -D 3080 --quiet", 0,
     "b2aca2fe241d258576f6c7a0bdca23daf19edc2aed52859962ab8881ef7aa29f"),
    ("verify -p 3 -D 32045 --quiet", 0,
     "cec652ded18c0cfd140af82c1b658e591cf747d55203f42b791006faad90dcce"),
    ("verify -p 3 -D 32009 --i-max 0 --quiet", 0,
     "13c31c34d1042e8b23db476430272847830fc64d68f4d6d31fa29cc0695e5e76"),
    ("verify -p 3 -D 257 --flip-sigma --quiet", 3,
     "acb149d03c93d9fe443f6aae2a1a5d4b0bebfe18c4f93e0a44fd5f821d9d9abc"),
    ("verify -p 5 -D 8 --quiet", 0,
     "115285c2f7156556bceb62c65fdd53f25d74b12badf38ebc23135b3cbe33086f"),
    ("verify -p 7 -D 5 --quiet", 0,
     "1080e4a9ce10b4eee451fc9e75172aa2e18be810ee995f4732fce48195b9ba54"),
    ("ideal -D 257 -N 3 -i 1", 0,
     "bb27ebfac81682a033c4adcfa5f3edf3d1fd9ac76e68ffb906b2592b9f8d7f1c"),
    ("ideal -D 257 -N 3 -i 4", 0,
     "ed9f64388058bf90e4e069dad7144bb8897c7d098a739c688cc666460600fe0a"),
    ("classgroup -D 257", 0,
     "ecd338a6317f5785ce33ca7fb051bb43319901a9654279d8c63b7b4bb97a9ad1"),
    ("primes -D 257 -N 1 --count 10", 0,
     "ca4185abed71dddb4c2fd2fcbe2bd74c9d4489b2d5cccad1e1fd3219638050a1"),
    ("formal --eps-max 3", 0,
     "a34b19e275d71992b1a1e6587daaedc442a3a96e3766c538ca17bc0decb60b91"),
    ("fitting -p 3 -N 5 2 1", 0,
     "0d13527609b052d438c53faf6aa3911ddf5fc530d842c9269ed59dba0efe5293"),
    ("kappa -D 257 -N 3 -q 13879", 0,
     "8dd085a952c0d69484df1e1f3e0415130e09f8cd956ac81e3c54aa85ab00e516"),
    ("kappa -D 257 -N 1 -q 20047 --chain 13", 0,
     "5d9687b7e2d6c727a2cf142a768294b466de6035e5de77748bacdcfa26d9f999"),
    ("kappa -D 257 -N 1 -q 11085439 --chain 13 79", 0,
     "cb2d5e8bb36e0501990e2ae3c91701c3bcaae14bdd61c189aee0bf438a0c30b6"),
    ("kappa -p 5 -D 8 -N 2 -q 401", 0,
     "cc98274e54e867cff762b41c791d81c07cfb0b0627026746e8153652fd12a3f8"),
    ("kappa -p 7 -D 5 -N 2 -q 491", 0,
     "24e3a93e75e09429f152742b7d75be686a383143bbbcea16cbf35e5b82dfc4a4"),
    ("kappa -D 473 -N 3 -q 127711 --kind d --param 43", 0,
     "b8b7282706bcd4b6823a88144cebc7b09e464e15d071bfc918da2289b7be5404"),
    ("kappa -D 785 -N 1 -q 32971 --chain 7 --kind d --param 157", 0,
     "5dd8a9c27ebb85846c7259574b8024f54b7507d5dbebe159c707efe313bcfd33"),
    ("kappa -D 257 -N 1 -q 11085439 --chain 13 79 --kind a --param 2", 0,
     "63865d45fa7671a210f30a7d3ea71ba4717d70dc005124f0297f85021f10a008"),
    ("kappa -p 5 -D 8 -N 1 -q 8681 --chain 31", 0,
     "0ef3e858a34905491da96047891c680cab82ff33cc973c66b92943731e1293b9"),
    ("kappa -p 7 -D 5 -N 1 -q 6091 --chain 29", 0,
     "1130bc15c602af519ea51b87ac2da288e2652aca2e341be3204a2246347e233c"),
    ("kappa -D 785 -N 3 -q 23102551 --chain 109", 0,
     "00296acbe7396a325f73e3bb13cea6459340962562a2d9ae76ee1801081c9248"),
    ("kappa -D 1937 -N 3 -q 57005911 --chain 109", 0,
     "5cf45700ccadf0066b6386f28532a74b77e3414275532d0f5e700d9fd21df83d"),
    ("kappa -D 3080 -N 3 -q 9064441 --chain 109", 0,
     "6fd8396de9062ae85e3db4c96cb37562b420b2464ca9b0402c62245ee1953234"),
    ("kappa -p 5 -D 12 -N 1 -q 3053821 --chain 11 661", 0,
     "9409f50cde83be87350cdbca5a7e957dd6cfcfc354c62ba4980f74e96ff5c522"),
    # one chain prime l against the kernel R: 2 |R| = 256 < l = 1621, and
    # |R| = 380 < l = 757 < 2 |R|
    ("kappa -D 257 -N 3 -q 22496239 --chain 1621", 0,
     "ad714b3fcd7932d9f257b3f193bf9c9618cd22dadff6247d0f1315b0f2c4b2aa"),
    ("kappa -D 761 -N 3 -q 217757107 --chain 757", 0,
     "0676d554d22c6cdde9ee6c341b0f38dd72c2b29667c439889dd092ec2b2c003a"),
    # a proper divisor and the a-type with nonzero vectors (p = 5: [1,4,1,4]
    # and [4,1,4,1]), each read from its Moebius table at every conjugate
    ("kappa -p 5 -D 12 -N 1 -q 661 --chain 11 --param 4", 0,
     "e2a940d18e1bc638728168125839516ea6f8a62f16fac7785d287206a58b5394"),
    ("kappa -p 5 -D 12 -N 1 -q 661 --chain 11 --kind a --param 2", 0,
     "cbf810658988075d336ad290d55b233cb048c6ef34a4b27c08c51f62c0c57126"),
]
PINNED_CORPUS = "7b2ffa30a2e192b65bc442eec992f0cd6c5ffdf2185bfff7513c00bb2f6e9e91"


def test_reports_match_pinned_digests(capsys):
    got = []
    for argv, _, _ in PINNED_REPORTS:
        code, out, _ = run_cli(capsys, argv.split())
        got.append((argv, code, hashlib.sha256(out.encode()).hexdigest()))
    digest = hashlib.sha256()
    for D in sorted(corpus_discriminants()):
        report = run_verify(3, D, i_max=2, budget=500, window=50, seed=0,
                            anni_count=0, quiet=True)
        digest.update(json.dumps(_sanitize(report), sort_keys=True,
                                 separators=(",", ":")).encode() + b"\n")
    assert [row for row, want in zip(got, PINNED_REPORTS) if row != want] == []
    assert digest.hexdigest() == PINNED_CORPUS


def test_classgroup_command(capsys):
    code, out, _ = run_cli(capsys, ["classgroup", "-D", "257"])
    assert code == 0
    rep = json.loads(out)
    assert rep["h_plus"] == 3
    assert rep["p_part_divisors"] == [1]
    assert rep["l_series_band"]["ok"]


def test_primes_command(capsys):
    code, out, _ = run_cli(capsys, ["primes", "-D", "257", "-N", "1", "--count", "3"])
    assert code == 0
    rep = json.loads(out)
    assert [r["ell"] for r in rep["primes"]] == [13, 31, 61]


def test_primes_command_writes_nothing_under_home(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOME", str(tmp_path))
    assert main(["primes", "-D", "257", "-N", "1", "--count", "3"]) == 0
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == []


def test_kappa_command(capsys):
    code, out, _ = run_cli(capsys, ["kappa", "-D", "257", "-N", "3", "-q", "13879"])
    assert code == 0
    rep = json.loads(out)
    assert rep["vector"] == [12, 15]


def test_fitting_and_formal_commands(capsys):
    code, out, _ = run_cli(capsys, ["fitting", "-p", "3", "-N", "5", "2", "1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["fitting"]["0"]["p_valuation"] == 3
    code, out, _ = run_cli(capsys, ["formal", "--eps-max", "3"])
    assert code == 0
    assert json.loads(out)["all_passed"]


def test_ideal_command(capsys):
    code, out, _ = run_cli(capsys, [
        "ideal", "-D", "257", "-N", "3", "-i", "0", "--budget", "60", "--window", "10",
    ])
    assert code == 0
    rep = json.loads(out)
    assert rep["ideal_valuation"] == 1


def test_inconclusive_exit_code_via_cli(capsys):
    # with no samples the ideal is zero, strictly below the unit Fitting ideal
    code, out, _ = run_cli(capsys, [
        "verify", "-D", "5", "--i-max", "0", "--budget", "0",
        "--annihilation", "0", "--quiet",
    ])
    rep = json.loads(out)
    assert rep["cyclotomic"]["0"]["status"] == "PARTIAL"
    assert rep["cyclotomic"]["0"]["ideal_rows"] == []
    assert rep["verdicts"] == {"0": "INCONCLUSIVE"}
    assert code == 2 and rep["status"] == "INCONCLUSIVE"


# (argv, exit code, error name): each command line prints nothing on stdout
# and one `error: <name>: ` line on stderr.
BAD_INPUTS = [
    (["verify", "-p", "4", "-D", "5", "--quiet"], 7, "NotPrime"),
    (["kappa", "-D", "257", "-N", "1", "-q", "20047", "--chain", "13", "--param", "7"],
     17, "ConductorClash"),  # d = 7 does not divide D
    (["kappa", "-D", "257", "-N", "0", "-q", "20047"], 12, "InsufficientPrecision"),
    (["primes", "-D", "257", "-N", "1", "--extra", "257"], 17, "ConductorClash"),
    (["fitting", "-N", "5", "1", "2"], 18, "BadDecomposition"),  # increasing divisors
    (["classgroup", "-D", "1229", "-p", "4"], 7, "NotPrime"),
    (["ideal", "-D", "257", "-i", "-1"], 20, "NegativeArgument"),
    (["verify", "-D", "257", "--annihilation", "-1", "--quiet"], 20, "NegativeArgument"),
    (["verify", "-D", "257", "--i-max", "-1", "--quiet"], 20, "NegativeArgument"),
    (["fitting", "-N", "5", "1", "2", "--i-max", "-1"], 20, "NegativeArgument"),
    (["formal", "--eps-max", "-1"], 20, "NegativeArgument"),
    (["primes", "-D", "257", "--count", "-1"], 20, "NegativeArgument"),
    (["ideal", "-D", "257", "--window", "-1"], 20, "NegativeArgument"),
    (["ideal", "-D", "257", "--budget", "-1"], 20, "NegativeArgument"),
    (["verify", "-D", "257", "--window", "-1", "--quiet"], 20, "NegativeArgument"),
    (["verify", "-D", "257", "--budget", "-1", "--quiet"], 20, "NegativeArgument"),
    # an explicit --param 0 is checked, not replaced by D
    (["kappa", "-D", "257", "-q", "1543", "--kind", "a", "--param", "0"],
     17, "ConductorClash"),
    (["kappa", "-D", "257", "-q", "1543", "--kind", "d", "--param", "0"],
     17, "ConductorClash"),
    # a negative prime-search budget is refused before any search
    (["primes", "-D", "257", "--budget", "-1"], 20, "NegativeArgument"),
    # a command line that does not parse is not INCONCLUSIVE (exit 2)
    (["verify", "--external", "r.json"], 21, "UsageError"),
    (["verify", "-D", "abc"], 21, "UsageError"),
    (["nosuch"], 21, "UsageError"),
    (["kappa", "-D", "8", "-q", "4"], 7, "NotPrime"),  # composite q, whatever chi_D(q)
    # the divisor lattice of 2^99 terms is refused before any work
    (["formal", "--eps-max", "99"], 10, "BudgetExhausted"),
    # 787 splits in Q(sqrt 257) but has order 4 modulo 257 * 3: residue degree 4
    (["kappa", "-D", "257", "-q", "787"], 15, "NotSplit"),
    # the checks up to eps = 14 rewrite 13 * 2^15 + 2 terms, above the cap
    (["formal", "--eps-max", "14"], 10, "BudgetExhausted"),
    (["verify", "-p", "3", "-D", "12", "--quiet"], 4, "Ramified"),
    (["verify", "-p", "3", "-D", "13", "--quiet"], 5, "SplitP"),
    (["verify", "-D", "15", "--quiet"], 6, "NotFundamental"),
    (["kappa", "-D", "15", "-q", "31"], 6, "NotFundamental"),
    # bad chains: 7 is inert in Q(sqrt 257); 257 is not 1 mod 3; 7 is not
    # 1 mod 3 * 13; 157 | 785
    (["kappa", "-D", "257", "-N", "1", "-q", "21589", "--chain", "7"], 15, "NotSplit"),
    (["kappa", "-D", "257", "-N", "1", "-q", "21589", "--chain", "257"], 16, "NotWellOrdered"),
    (["kappa", "-D", "257", "-N", "1", "-q", "21589", "--chain", "13", "13"],
     16, "NotWellOrdered"),
    (["kappa", "-D", "257", "-N", "1", "-q", "21589", "--chain", "13", "7"],
     16, "NotWellOrdered"),
    (["kappa", "-D", "257", "-N", "1", "-q", "21589", "--chain", "91"], 7, "NotPrime"),
    (["kappa", "-D", "785", "-N", "1", "-q", "21589", "--chain", "157"], 4, "Ramified"),
    # a bad evaluation prime: 11 is not 1 mod M = 257 * 3
    (["kappa", "-D", "257", "-N", "1", "-q", "11"], 15, "NotSplit"),
    (["verify", "-D", "257", "--external", "r.json"], 21, "UsageError"),
    # p = 0 and 1 are refused before the class group: its p-part needs a prime
    (["verify", "-p", "0", "-D", "5", "--quiet"], 7, "NotPrime"),
    (["verify", "-p", "1", "-D", "5", "--quiet"], 7, "NotPrime"),
]


@pytest.mark.parametrize("argv,code,name", BAD_INPUTS)
def test_bad_inputs_exit_with_one_error_line(capsys, argv, code, name):
    got, out, err = run_cli(capsys, argv)
    assert got == code and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {name}: ")


@pytest.mark.parametrize("flag", ["--annihilation", "--budget", "--window"])
def test_verify_refuses_negative_bounds_before_any_work(capsys, monkeypatch, flag):
    def no_oracle(D):
        raise AssertionError("the class group was built before the bounds were checked")

    monkeypatch.setattr(cli, "narrow_class_group", no_oracle)
    got, out, err = run_cli(capsys, ["verify", "-D", "257", flag, "-1", "--quiet"])
    assert got == 20 and out == ""
    assert err == f"error: NegativeArgument: {flag} = -1 must be >= 0\n"


@pytest.mark.parametrize("p", ["0", "1", "4", "-3"])
def test_verify_refuses_a_bad_p_before_any_work(capsys, monkeypatch, p):
    # the p-part of the class group is read only for a checked p: at p = 1
    # it would never return, at p = 0 it would divide by zero
    def no_oracle(D):
        raise AssertionError("the class group was built before p was checked")

    monkeypatch.setattr(cli, "narrow_class_group", no_oracle)
    got, out, err = run_cli(capsys, ["verify", "-p", p, "-D", "5", "--quiet"])
    assert got == 7 and out == ""
    assert err == f"error: NotPrime: p = {p} must be an odd prime\n"


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["--version"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and capsys.readouterr().out


def test_verify_runs_the_formal_suite_once(capsys, monkeypatch):
    calls = []
    build = combined.build_combined
    monkeypatch.setattr(combined, "build_combined",
                        lambda *args, **kw: calls.append(args) or build(*args, **kw))
    cli._formal_reports.cache_clear()
    reports = [run_verify(3, 5, i_max=0, anni_count=0, quiet=True)]
    first = len(calls)
    assert first == sum(eps + 1 for eps in range(4))  # x_{nu,q} and each x_{nu/l,q}
    reports.append(run_verify(3, 5, i_max=0, anni_count=0, quiet=True))
    assert len(calls) == first
    code, out, _ = run_cli(capsys, ["formal", "--eps-max", "3"])
    assert code == 0 and len(calls) == 2 * first  # `formal` computes afresh
    fresh = json.loads(out)["reports"]
    assert reports[0]["formal_identities"] == reports[1]["formal_identities"] == fresh


def test_verify_computes_the_oracle_fitting_side_once_per_key(monkeypatch):
    calls = []
    minors = cli.fitting_ideal
    monkeypatch.setattr(cli, "fitting_ideal",
                        lambda pres, i: calls.append(i) or minors(pres, i))
    cli._oracle_fittings.cache_clear()
    # D = 5 and D = 8 share divisors () and N = 2; D = 257 has (1,) and N = 3
    reports = {D: run_verify(3, D, anni_count=0, quiet=True) for D in (5, 8)}
    assert calls == [0, 1, 2]
    reports[257] = run_verify(3, 257, anni_count=0, quiet=True)
    assert calls == [0, 1, 2] * 2
    # an explicit N below the p-part's needs raises again on every call
    for _ in range(2):
        with pytest.raises(InsufficientPrecision):
            run_verify(3, 257, N=1, anni_count=0, quiet=True)
    cli._oracle_fittings.cache_clear()
    for D, report in reports.items():
        fresh = run_verify(3, D, i_max=2, anni_count=0, quiet=True)
        for key in ("fitting", "fitting_minor_cross_check"):
            assert report[key] == fresh[key], (D, key)
    assert calls == [0, 1, 2] * 4


def test_verify_is_a_bug_when_the_oracle_fitting_routes_disagree(capsys, monkeypatch):
    # the minors of the diagonal presentation give the zero ideal, so the
    # cross-check fails at every index while every sample still matches
    monkeypatch.setattr(cli, "fitting_ideal",
                        lambda pres, i: principal_ideal(pres.ring.p, pres.ring.N, pres.ring.N))
    cli._oracle_fittings.cache_clear()
    try:
        code, out, _ = run_cli(capsys, ["verify", "-p", "3", "-D", "257", "--quiet"])
    finally:
        # no later run may read an entry built from the broken route
        cli._oracle_fittings.cache_clear()
    report = json.loads(out)
    assert code == 3 and report["status"] == "BUG"
    assert report["fitting_minor_cross_check"] == {"0": False, "1": False, "2": False}
    assert report["verdicts"] == {"0": "MATCH", "1": "MATCH", "2": "MATCH"}


def test_verify_is_a_bug_when_a_sample_escapes_the_oracle_fitting(capsys, monkeypatch):
    # the oracle claims a 3-part Z/9 at D = 257 (it is Z/3), so Fitt_0 = (9)
    # at N = 4, and the first sample, of valuation 1, lies outside it
    monkeypatch.setattr(classgroup.FormClassGroup, "p_part_divisors", lambda self, p: (2,))
    code, out, _ = run_cli(capsys, ["verify", "-D", "257", "--annihilation", "0", "--quiet"])
    report = json.loads(out)
    assert code == 3 and report["status"] == "BUG"
    assert report["config"]["N"] == 4 and report["fitting"]["0"]["rows"] == [[9]]
    assert report["verdicts"] == {"0": "BUG", "1": "BUG", "2": "BUG"}
    runs = report["cyclotomic"]
    # the run at i = 0 stops at its first sample; the runs at i >= 1 inherit
    # its BUG and draw no sample of their own
    [sample] = runs["0"]["samples"]
    assert sample["valuation"] == 1 and sample["in_fitting"] is False
    for i in "012":
        assert runs[i]["status"] == "BUG" and runs[i]["samples"] == [sample], i


def test_package_caches_are_the_inventory():
    # every functools cache of the package, found as bench's clear_caches
    # finds them (a module attribute with cache_clear), once per object and
    # named by its binding in the module that defines it.  A new cache edits
    # this table and the ROADMAP standing decision on what a sample may take
    # from earlier samples.
    for info in pkgutil.iter_modules(cycfit.__path__):
        importlib.import_module(f"cycfit.{info.name}")
    bound = {}  # id -> (cache, every module.name bound to it)
    for key, mod in list(sys.modules.items()):
        if key.startswith("cycfit."):
            for name, obj in vars(mod).items():
                if hasattr(obj, "cache_clear"):
                    bound.setdefault(id(obj), (obj, set()))[1].add(f"{key}.{name}")
    caches = {min(names, key=lambda n, home=f"{obj.__module__}.": not n.startswith(home)):
              obj.cache_info().maxsize for obj, names in bound.values()}
    assert len(caches) == len(bound) and caches == {
        "cycfit.arith.proven_prime": 64,
        "cycfit.arith.primitive_root": 16,
        "cycfit.units._chain_evaluator": 8,
        "cycfit.units._walk": 4,
        "cycfit.units._kernel": 2,
        "cycfit.units._chirp_exponents": 16,
        "cycfit.classgroup._ln2_fixed": 1,
        # per process, keyed by (p, N, divisors, i_max) and by nothing
        "cycfit.cli._oracle_fittings": None,
        "cycfit.cli._formal_reports": None,
    }


def test_sanitize_big_integers():
    doc = {"small": 7, "big": 2**60, "neg": -(2**60), "list": [2**54]}
    out = _sanitize(doc)
    assert out["small"] == 7
    assert out["big"] == str(2**60)
    assert out["neg"] == str(-(2**60))
    assert out["list"] == [str(2**54)]


def test_parser_has_all_subcommands():
    ap = build_parser()
    subs = next(a for a in ap._actions if hasattr(a, "choices") and a.choices)
    assert set(subs.choices) == {
        "verify", "classgroup", "primes", "kappa", "ideal", "fitting", "formal",
    }


def test_run_verify_inconclusive_paths_do_not_crash():
    # tiny budget: sampling cannot stabilize => INCONCLUSIVE, exit code 2 semantics
    r = run_verify(3, 257, i_max=0, budget=3, window=50, anni_count=0, quiet=True)
    assert r["verdicts"]["0"] in ("MATCH", "INCONCLUSIVE")
    if r["verdicts"]["0"] == "INCONCLUSIVE":
        assert r["status"] == "INCONCLUSIVE"


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Both cost start-up time on every `cycfit` process (inspect alone pulls
    # in dis, ast, tokenize and linecache), so the record types are plain
    # classes; -S keeps site customisations from importing either first.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(cycfit.__file__).parent.parent)!r})\n"
        "import cycfit.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "[]\n"


def test_package_import_loads_no_layer_module():
    # the package holds only __version__; callers import each layer by name
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(cycfit.__file__).parent.parent)!r})\n"
        "import cycfit\n"
        "print(sorted(m for m in sys.modules if m.startswith('cycfit.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "[]\n"
