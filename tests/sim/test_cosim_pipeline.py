"""The single co-simulation pipeline: one trial runner behind
``verify_artifact``, ``cosim_instruction``, ``cosim_always`` and the
optimizer's architectural trace, resolving ports from hwgen's port
records instead of their names."""

import hashlib

import pytest

from repro import compile_isax
from repro.isaxes import ALL_ISAXES
from repro.opt.equiv import architectural_trace
from repro.scaiev import CORES
from repro.scaiev.cores import EXPERIMENTAL_CORES
from repro.sim import verify_artifact

#: SHA-256 per Table 3 ISAX of ``architectural_trace(trials=4, seed=0)``
#: on the four paper cores at -O0 and -O2 (see ``_trace_digest``).
#: Recorded with the name-parsing harness that preceded the trial runner;
#: any drift in stimuli, feedback or port resolution changes it.
TRACE_SHA256 = {
    "autoinc":
        "e3f8d2f5dcb692b4f2b811636fefbd09405caf33db5b299afa55f78520cd4b28",
    "dotprod":
        "c2a4fad62ca9f576986558492cb89bf36e64cfe3d9076e5093b3fe159e28a719",
    "ijmp":
        "0a5d758132f24d559914516ce8c8e6898e9952ca9e33b6e649f47a4ba01a4317",
    "sbox":
        "8c014ada618835ff92e5394567a9833f112dafcd84e6ba3d7757be85e810d549",
    "sparkle":
        "f852426a52e614667fe3c71b1cd6400f23ed8ccb68e08d488fa72ca325af31db",
    "sqrt_decoupled":
        "833897f6970cc92d136792334d220339fd47d976b7c096936229caad9e4e1e36",
    "sqrt_tightly":
        "833897f6970cc92d136792334d220339fd47d976b7c096936229caad9e4e1e36",
    "zol":
        "fe18a48138ce37c888ba8fea88e3060ab8c9e6cf54985926908543bab03c0f38",
}


def _trace_digest(name: str) -> str:
    digest = hashlib.sha256()
    for core in CORES:
        for level in (0, 2):
            artifact = compile_isax(ALL_ISAXES[name], core, opt=level)
            digest.update(f"{core} -O{level}\n".encode())
            digest.update(architectural_trace(artifact, trials=4,
                                              seed=0).encode())
            digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(ALL_ISAXES))
def test_architectural_trace_fixture(name):
    assert _trace_digest(name) == TRACE_SHA256[name]


def _verdict(report):
    return (report.passed, report.trials, tuple(sorted(
        (f.functionality, tuple(sorted(m.kind for m in f.mismatches)))
        for f in report.failures)))


@pytest.mark.parametrize("core", CORES + EXPERIMENTAL_CORES)
def test_verdicts_identical_across_engines(core):
    """Every engine sees the same trials (the seed contract) and must
    reach the same verdict on them, read feedback included."""
    for name in sorted(ALL_ISAXES):
        artifact = compile_isax(ALL_ISAXES[name], core)
        for seed in range(3):
            verdicts = {
                engine: _verdict(verify_artifact(
                    artifact, trials=4, seed=seed, sim_engine=engine))
                for engine in ("interp", "compiled", "auto", "batched")
            }
            assert len(set(verdicts.values())) == 1, (name, seed, verdicts)
            assert verdicts["auto"][0], (name, seed, verdicts)


#: Registers named like a signal or like a standard input's trial value:
#: register -> (its source operand field, behavior).
ODD_NAMES = {
    "x_data_y": ("rs1", "X[rd] = x_data_y; x_data_y = X[rs1];"),
    "word": ("rs1", "X[rd] = word; word = X[rs1];"),
    "rs1": ("rs2", "X[rd] = rs1; rs1 = X[rs2];"),
    "rs2": ("rs1", "X[rd] = rs2; rs2 = X[rs1];"),
}
#: Where each source field sits in the instruction word.
_FIELD_ENCODING = {"rs1": "12'd0 :: rs1[4:0]",
                   "rs2": "7'd0 :: rs2[4:0] :: 5'd0"}


def _odd_isax(register: str) -> str:
    field, behavior = ODD_NAMES[register]
    return f'''import "RV32I.core_desc"
InstructionSet T extends RV32I {{
  architectural_state {{ register unsigned<32> {register}; }}
  instructions {{
    t {{
      encoding: {_FIELD_ENCODING[field]} :: 3'b000 :: rd[4:0] :: 7'b0001011;
      behavior: {{ {behavior} }}
    }}
  }}
}}
'''


@pytest.mark.parametrize("engine", ["auto", "batched"])
@pytest.mark.parametrize("register", sorted(ODD_NAMES))
def test_register_name_containing_a_signal_name(register, engine):
    """The read port ``rdx_data_y_data_2`` belongs to register
    ``x_data_y``, not ``x``, and a register named ``word`` or ``rs1`` is
    fed its own value, not the instruction word or a GPR."""
    artifact = compile_isax(_odd_isax(register), "VexRiscv")
    report = verify_artifact(artifact, trials=20, seed=1, sim_engine=engine)
    assert report.passed, [f.mismatches for f in report.failures]
    assert report.trials == 20
