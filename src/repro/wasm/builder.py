"""Synthetic WebAssembly module corpus.

Coinhive and its clones are dead, so the reproduction generates a corpus of
structurally authentic modules standing in for the ~160 distinct assemblies
the paper catalogued (Section 3.2). Two properties matter for fidelity:

1. **Determinism** — a blueprint (family, variant) always produces the exact
   same bytes, so the SHA-256 function-body signature of the paper's method
   is stable, and distinct variants produce distinct signatures.
2. **Realistic feature profiles** — miner families emit CryptoNight-style
   code (XOR/shift/rotate/load heavy, large linear memory for the 2 MB
   scratchpad, AES-like round loops, telltale function names); benign
   families (games, codecs, math libraries) emit float-heavy or mixed code.
   The paper's classifier keys on exactly these features, so the corpus must
   separate along them the way real 2018 binaries did.

The builder is used by :mod:`repro.internet` to equip synthetic websites and
by the tests/benchmarks to exercise the fingerprint pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.rng import RngStream
from repro.wasm.encoder import encode_module
from repro.wasm.types import CodeEntry, Export, FuncType, Import, Instr, Limits, Module, ValType


@dataclass(frozen=True)
class FamilyProfile:
    """Code-generation profile for one Wasm family.

    ``is_miner`` marks ground truth used by the evaluation harness.
    ``xor_weight``/``shift_weight``/``load_weight``/``float_weight`` steer
    the instruction mix; ``scratchpad_pages`` sizes linear memory (a real
    CryptoNight miner needs ≥32 × 64 KiB pages for its 2 MB scratchpad).
    """

    name: str
    is_miner: bool
    xor_weight: float
    shift_weight: float
    load_weight: float
    store_weight: float
    float_weight: float
    arith_weight: float
    scratchpad_pages: int
    function_names: tuple = ()
    export_names: tuple = ()
    backend: Optional[str] = None  # WebSocket backend associated with the family
    num_variants: int = 8
    rounds_per_function: int = 12


#: Miner families observed by the paper (Table 1 + Section 3.1) and benign
#: families that real crawls encounter (games, codecs, math, media).
FAMILY_PROFILES: dict[str, FamilyProfile] = {}


def _register(profile: FamilyProfile) -> FamilyProfile:
    FAMILY_PROFILES[profile.name] = profile
    return profile


COINHIVE = _register(
    FamilyProfile(
        name="coinhive",
        is_miner=True,
        xor_weight=0.24,
        shift_weight=0.18,
        load_weight=0.22,
        store_weight=0.12,
        float_weight=0.0,
        arith_weight=0.24,
        scratchpad_pages=33,
        function_names=("cryptonight_hash", "cn_slow_hash", "keccak_f1600", "aes_round", "_ZN9coinhive"),
        export_names=("_cryptonight_create", "_cryptonight_hash", "_cryptonight_destroy"),
        backend="wss://ws%d.coinhive.com/proxy",
        num_variants=40,
        rounds_per_function=16,
    )
)

AUTHEDMINE = _register(
    FamilyProfile(
        name="authedmine",
        is_miner=True,
        xor_weight=0.24,
        shift_weight=0.18,
        load_weight=0.22,
        store_weight=0.12,
        float_weight=0.0,
        arith_weight=0.24,
        scratchpad_pages=33,
        function_names=("cryptonight_hash", "cn_slow_hash", "keccak_f1600", "aes_round"),
        export_names=("_cryptonight_create", "_cryptonight_hash"),
        backend="wss://ws%d.authedmine.com/proxy",
        num_variants=8,
        rounds_per_function=16,
    )
)

CRYPTOLOOT = _register(
    FamilyProfile(
        name="cryptoloot",
        is_miner=True,
        xor_weight=0.22,
        shift_weight=0.20,
        load_weight=0.20,
        store_weight=0.13,
        float_weight=0.0,
        arith_weight=0.25,
        scratchpad_pages=33,
        function_names=("cn_hash", "crloot_hash", "keccak", "skein_256"),
        export_names=("_crloot_hash", "_crloot_init"),
        backend="wss://webmine.crypto-loot.com/ws%d",
        num_variants=18,
        rounds_per_function=14,
    )
)

SKENCITUER = _register(
    FamilyProfile(
        name="skencituer",
        is_miner=True,
        xor_weight=0.26,
        shift_weight=0.16,
        load_weight=0.21,
        store_weight=0.12,
        float_weight=0.0,
        arith_weight=0.25,
        scratchpad_pages=32,
        function_names=("sken_mix", "sken_round", "blake_compress"),
        export_names=("_work", "_init"),
        backend="wss://skencituer.com/socket%d",
        num_variants=10,
        rounds_per_function=12,
    )
)

WEBSTATIBID = _register(
    FamilyProfile(
        name="web.stati.bid",
        is_miner=True,
        xor_weight=0.23,
        shift_weight=0.19,
        load_weight=0.20,
        store_weight=0.13,
        float_weight=0.0,
        arith_weight=0.25,
        scratchpad_pages=32,
        function_names=("cn_lite", "statibid_hash", "groestl_512"),
        export_names=("_hash", "_reset"),
        backend="wss://web.stati.bid/pool%d",
        num_variants=8,
        rounds_per_function=12,
    )
)

FREECONTENT = _register(
    FamilyProfile(
        name="freecontent.date",
        is_miner=True,
        xor_weight=0.25,
        shift_weight=0.17,
        load_weight=0.21,
        store_weight=0.12,
        float_weight=0.0,
        arith_weight=0.25,
        scratchpad_pages=32,
        function_names=("fc_mix", "cn_round", "jh_hash"),
        export_names=("_fc_hash",),
        backend="wss://freecontent.date/w%d",
        num_variants=8,
        rounds_per_function=12,
    )
)

NOTGIVEN688 = _register(
    FamilyProfile(
        name="notgiven688",
        is_miner=True,
        xor_weight=0.27,
        shift_weight=0.15,
        load_weight=0.22,
        store_weight=0.11,
        float_weight=0.0,
        arith_weight=0.25,
        scratchpad_pages=32,
        # deliberately stripped names: this family hides function names,
        # exercising the instruction-mix path of the classifier
        function_names=(),
        export_names=("a", "b", "c"),
        backend="wss://notgiven688.webminepool.com/ws%d",
        num_variants=10,
        rounds_per_function=13,
    )
)

WPMONERO = _register(
    FamilyProfile(
        name="wp-monero",
        is_miner=True,
        xor_weight=0.23,
        shift_weight=0.18,
        load_weight=0.21,
        store_weight=0.13,
        float_weight=0.0,
        arith_weight=0.25,
        scratchpad_pages=32,
        function_names=("wpmm_hash", "cn_slow_hash"),
        export_names=("_wpmm_hash",),
        backend="wss://wp-monero-miner.de/ws%d",
        num_variants=8,
        rounds_per_function=12,
    )
)

JSMINER = _register(
    FamilyProfile(
        name="jsminer",
        is_miner=True,
        xor_weight=0.20,
        shift_weight=0.22,
        load_weight=0.18,
        store_weight=0.12,
        float_weight=0.0,
        arith_weight=0.28,
        scratchpad_pages=4,  # Bitcoin SHA-256: no scratchpad
        function_names=("sha256_transform", "mine_block"),
        export_names=("_sha256",),
        backend="wss://jsminer.example/ws%d",
        num_variants=4,
        rounds_per_function=10,
    )
)

UNKNOWN_WSS = _register(
    FamilyProfile(
        name="unknown-wss",
        is_miner=True,
        xor_weight=0.25,
        shift_weight=0.18,
        load_weight=0.21,
        store_weight=0.12,
        float_weight=0.0,
        arith_weight=0.24,
        scratchpad_pages=32,
        function_names=(),
        export_names=("f0", "f1"),
        backend="wss://%d.unknown-pool.net/ws",
        num_variants=12,
        rounds_per_function=12,
    )
)

# -- benign families ---------------------------------------------------------

GAME_ENGINE = _register(
    FamilyProfile(
        name="game-engine",
        is_miner=False,
        xor_weight=0.02,
        shift_weight=0.05,
        load_weight=0.15,
        store_weight=0.10,
        float_weight=0.45,
        arith_weight=0.23,
        scratchpad_pages=16,
        function_names=("physics_step", "vec3_dot", "update_entities", "render_frame"),
        export_names=("_main_loop", "_on_frame"),
        num_variants=16,
        rounds_per_function=10,
    )
)

VIDEO_CODEC = _register(
    FamilyProfile(
        name="video-codec",
        is_miner=False,
        xor_weight=0.04,
        shift_weight=0.14,
        load_weight=0.28,
        store_weight=0.22,
        float_weight=0.12,
        arith_weight=0.20,
        scratchpad_pages=24,
        function_names=("idct_8x8", "decode_macroblock", "yuv_to_rgb"),
        export_names=("_decode_frame",),
        num_variants=12,
        rounds_per_function=12,
    )
)

MATH_LIB = _register(
    FamilyProfile(
        name="math-lib",
        is_miner=False,
        xor_weight=0.01,
        shift_weight=0.03,
        load_weight=0.12,
        store_weight=0.08,
        float_weight=0.56,
        arith_weight=0.20,
        scratchpad_pages=2,
        function_names=("matmul", "fft_radix2", "solve_lu"),
        export_names=("_matmul", "_fft"),
        num_variants=10,
        rounds_per_function=8,
    )
)

IMAGE_FILTER = _register(
    FamilyProfile(
        name="image-filter",
        is_miner=False,
        xor_weight=0.03,
        shift_weight=0.10,
        load_weight=0.30,
        store_weight=0.24,
        float_weight=0.08,
        arith_weight=0.25,
        scratchpad_pages=16,
        function_names=("gaussian_blur", "convolve_3x3", "resize_bilinear"),
        export_names=("_apply_filter",),
        num_variants=8,
        rounds_per_function=10,
    )
)

COMPRESSION = _register(
    FamilyProfile(
        name="compression",
        is_miner=False,
        # zlib-style code has real shift/xor density (CRC32!) but almost no
        # rotates and a small memory footprint — the hard negative for the
        # instruction-mix classifier.
        xor_weight=0.12,
        shift_weight=0.16,
        load_weight=0.24,
        store_weight=0.18,
        float_weight=0.0,
        arith_weight=0.30,
        scratchpad_pages=8,
        function_names=("inflate_block", "crc32_update", "huffman_decode"),
        export_names=("_inflate", "_deflate"),
        num_variants=8,
        rounds_per_function=10,
    )
)


MINER_FAMILIES = tuple(p.name for p in FAMILY_PROFILES.values() if p.is_miner)
BENIGN_FAMILIES = tuple(p.name for p in FAMILY_PROFILES.values() if not p.is_miner)


@dataclass(frozen=True)
class ModuleBlueprint:
    """Identifies one concrete assembly: a family plus a variant number.

    Variants model the "versions of the conceptually same miner" the paper
    found: each variant differs in code-generation seed (and therefore
    signature) while keeping the family's feature profile.
    """

    family: str
    variant: int

    def profile(self) -> FamilyProfile:
        return FAMILY_PROFILES[self.family]

    @property
    def label(self) -> str:
        return f"{self.family}/v{self.variant}"


def all_blueprints() -> list:
    """Every (family, variant) pair in the corpus — the ~160 assemblies."""
    blueprints = []
    for profile in FAMILY_PROFILES.values():
        for variant in range(profile.num_variants):
            blueprints.append(ModuleBlueprint(profile.name, variant))
    return blueprints


#: encoded module bytes by ``(root_seed, blueprint)``, shared by every
#: builder in the process
_ENCODED: dict = {}


@dataclass
class WasmCorpusBuilder:
    """Deterministic generator of the module corpus.

    Encoded modules are memoized per process by ``(root_seed, blueprint)``,
    so repeated site visits serve identical bytes, exactly as a CDN-served
    ``cryptonight.wasm`` would, and every builder with the same seed (the
    reference database, each population kit) shares one build per blueprint.
    """

    root_seed: int = 2018

    def build(self, blueprint: ModuleBlueprint) -> bytes:
        """Return the encoded module bytes for ``blueprint`` (memoized)."""
        key = (self.root_seed, blueprint)
        module_bytes = _ENCODED.get(key)
        if module_bytes is None:
            module_bytes = _ENCODED.setdefault(key, encode_module(self.build_module(blueprint)))
        return module_bytes

    def build_module(self, blueprint: ModuleBlueprint) -> Module:
        """Construct the (unencoded) :class:`Module` for ``blueprint``."""
        profile = blueprint.profile()
        rng = RngStream(self.root_seed, "wasm", blueprint.family, str(blueprint.variant))

        num_functions = 4 + rng.randint(0, 3)
        module = Module()
        module.types = [
            FuncType((ValType.I32, ValType.I32), (ValType.I32,)),
            FuncType((ValType.I32,), ()),
            FuncType((), (ValType.I32,)),
        ]
        # One imported environment function, as emscripten output has.
        module.imports = [Import("env", "abort", 0, 1)]
        module.memories = [Limits(profile.scratchpad_pages, profile.scratchpad_pages * 2)]
        module.func_type_indices = [0] * num_functions
        module.codes = [
            self._gen_function(profile, rng.substream(f"fn{i}"), i) for i in range(num_functions)
        ]

        num_imported = module.num_imported_funcs()
        for i, export_name in enumerate(profile.export_names):
            if i >= num_functions:
                break
            module.exports.append(Export(export_name, 0, num_imported + i))
        module.exports.append(Export("memory", 2, 0))

        # name section: most families ship names (emscripten debug builds);
        # stripped families have an empty tuple and get no name section.
        for i, fn_name in enumerate(profile.function_names):
            if i >= num_functions:
                break
            module.func_names[num_imported + i] = fn_name
        return module

    # -- code generation -----------------------------------------------------

    def _gen_function(self, profile: FamilyProfile, rng: RngStream, index: int) -> CodeEntry:
        """Emit one function: a bounded loop of profile-weighted rounds.

        The shape mimics compiled hash/compute kernels: locals initialized
        from parameters, a counted loop whose body is straight-line
        arithmetic over locals and linear memory, and a result return.
        """
        num_locals = 4 + rng.randint(0, 4)
        body: list[Instr] = []
        # init locals from params and constants
        body.append(Instr("local.get", (0,)))
        body.append(Instr("local.set", (2,)))
        body.append(Instr("local.get", (1,)))
        body.append(Instr("local.set", (3,)))
        for local in range(4, 2 + num_locals):
            body.append(Instr("i32.const", (rng.getrandbits(31),)))
            body.append(Instr("local.set", (local,)))

        body.append(Instr("block", (None,)))
        body.append(Instr("loop", (None,)))
        rounds = profile.rounds_per_function + rng.randint(0, 4)
        for _ in range(rounds):
            body.extend(self._gen_round(profile, rng, num_locals))
        # loop bookkeeping: decrement counter in local 2, branch while non-zero
        body.append(Instr("local.get", (2,)))
        body.append(Instr("i32.const", (1,)))
        body.append(Instr("i32.sub", ()))
        body.append(Instr("local.tee", (2,)))
        body.append(Instr("i32.eqz", ()))
        body.append(Instr("br_if", (1,)))
        body.append(Instr("br", (0,)))
        body.append(Instr("end"))  # loop
        body.append(Instr("end"))  # block
        body.append(Instr("local.get", (3,)))
        body.append(Instr("end"))

        return CodeEntry(locals_=[(num_locals, ValType.I32)], body=body)

    def _gen_round(self, profile: FamilyProfile, rng: RngStream, num_locals: int) -> list:
        """One profile-weighted operation: load/store/bitop/arith/float."""
        kinds = ("xor", "shift", "load", "store", "float", "arith")
        weights = (
            profile.xor_weight,
            profile.shift_weight,
            profile.load_weight,
            profile.store_weight,
            profile.float_weight,
            profile.arith_weight,
        )
        kind = rng.choices(kinds, weights)[0]
        # local 2 is the loop counter: rounds may read it but never write it,
        # or the kernel would not terminate (the interpreter tests execute
        # every corpus function)
        local_a = 3 + rng.randint(0, num_locals - 2)
        local_b = 3 + rng.randint(0, num_locals - 2)
        # compiled hash kernels chain several stack ops before spilling to a
        # local; benign code spills almost immediately
        chain = rng.randint(2, 4) if profile.is_miner else 1
        out: list[Instr] = []
        if kind == "xor":
            out.append(Instr("local.get", (local_a,)))
            out.append(Instr("local.get", (local_b,)))
            out.append(Instr("i32.xor", ()))
            for _ in range(chain - 1):
                if rng.random() < 0.45:
                    # CryptoNight interleaves XOR with rotates
                    out.append(Instr("i32.const", (rng.randint(1, 31),)))
                    out.append(Instr("i32.rotl" if rng.random() < 0.5 else "i32.rotr", ()))
                else:
                    out.append(Instr("local.get", (2 + rng.randint(0, num_locals - 1),)))
                    out.append(Instr("i32.xor", ()))
            out.append(Instr("local.set", (local_a,)))
        elif kind == "shift":
            op = rng.choice(("i32.shl", "i32.shr_u", "i32.shr_s"))
            out.append(Instr("local.get", (local_a,)))
            out.append(Instr("i32.const", (rng.randint(1, 31),)))
            out.append(Instr(op, ()))
            for _ in range(chain - 1):
                out.append(Instr("i32.const", (rng.randint(1, 31),)))
                out.append(Instr(rng.choice(("i32.shl", "i32.shr_u", "i32.rotl")), ()))
            out.append(Instr("local.set", (local_a,)))
        elif kind == "load":
            op = rng.choice(("i32.load", "i32.load", "i32.load8_u", "i64.load"))
            offset = rng.randint(0, 4096) & ~0x3
            out.append(Instr("local.get", (local_a,)))
            out.append(Instr("i32.const", (profile.scratchpad_pages * 65536 - 4096 - 8,)))
            out.append(Instr("i32.rem_u", ()))
            if op.startswith("i64"):
                out.append(Instr(op, (3, offset)))
                out.append(Instr("i32.wrap_i64", ()))
            else:
                out.append(Instr(op, (2, offset)))
            out.append(Instr("local.set", (local_b,)))
        elif kind == "store":
            offset = rng.randint(0, 4096) & ~0x3
            out.append(Instr("local.get", (local_a,)))
            out.append(Instr("i32.const", (profile.scratchpad_pages * 65536 - 4096 - 8,)))
            out.append(Instr("i32.rem_u", ()))
            out.append(Instr("local.get", (local_b,)))
            out.append(Instr("i32.store", (2, offset)))
        elif kind == "float":
            op = rng.choice(("f64.add", "f64.mul", "f64.sub", "f64.div", "f64.sqrt"))
            # keep the float op self-contained: constants in, i32 out
            out = [
                Instr("f64.const", (rng.uniform(0.0, 1.0),)),
                Instr("f64.const", (rng.uniform(0.5, 2.0),)),
            ]
            if op == "f64.sqrt":
                out = out[:1]
                out.append(Instr("f64.sqrt", ()))
            else:
                out.append(Instr(op, ()))
            out.append(Instr("i64.reinterpret_f64", ()))
            out.append(Instr("i32.wrap_i64", ()))
            out.append(Instr("local.set", (local_a,)))
        else:  # arith
            op = rng.choice(("i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or"))
            out.append(Instr("local.get", (local_a,)))
            out.append(Instr("local.get", (local_b,)))
            out.append(Instr(op, ()))
            out.append(Instr("local.set", (local_a,)))
        return out
