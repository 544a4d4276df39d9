"""INI experiment configs: parsing, validation, initial-state preparation.

Unknown sections or keys are errors.  A misspelled noise key silently
changing the physics of a run is the failure mode this guards against.
"""

from __future__ import annotations

from configparser import ConfigParser, Error
from dataclasses import dataclass

import numpy as np

from .noise import NoiseConfig
from .walk import CoinSpec, WalkGraph

_SECTION_KEYS = {
    "graph": {"kind", "vertices", "liveliness"},
    "coin": {"kind", "theta", "matrix"},
    "initial": {"coin", "vertex"},
    "run": {"steps", "average_includes_t0"},
    "noise": {"gate", "idle", "idle_scope", "p1", "r1", "r2", "t_idle", "epsilon", "seed"},
}

_SUPERPOSITION = np.full(3, 1 / np.sqrt(3), dtype=complex)


@dataclass(frozen=True)
class ExperimentConfig:
    graph: WalkGraph
    coin: CoinSpec
    initial_coin: np.ndarray
    initial_vertex: int
    steps: int
    average_includes_t0: bool
    noise: NoiseConfig

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be positive")
        amps = np.asarray(self.initial_coin, dtype=complex)
        if amps.shape != (3,):
            raise ValueError("initial coin state needs three amplitudes")
        if abs(np.linalg.norm(amps) - 1) > 1e-9:
            raise ValueError("initial coin state must be normalized")
        object.__setattr__(self, "initial_coin", amps)
        v, count = self.initial_vertex, self.graph.num_vertices
        if not isinstance(v, int) or not 0 <= v < count:
            raise ValueError(f"initial vertex must be an index below {count}, got {v!r}")


def _check_keys(cp: ConfigParser) -> None:
    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ValueError(f"unknown config section [{section}]")
        allowed = _SECTION_KEYS[section]
        for key in cp[section]:
            if key not in allowed:
                raise ValueError(f"unknown key {key!r} in section [{section}]")


def complex_entries(text: str) -> list[complex]:
    """Complex literals such as 0.5+0.5j, separated by commas or whitespace.

    The [coin] matrix key and the synthesis matrix files share this syntax.
    """
    try:
        return [complex(token) for token in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"unparseable complex entries: {text!r}") from None


def _parse_bool(raw: str, where: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(f"{where} must be 'true' or 'false', got {raw!r}")


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{where} must be an integer, got {raw!r}") from None


def _parse_float(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{where} must be a number, got {raw!r}") from None


def _parse_graph(cp: ConfigParser) -> WalkGraph:
    if not cp.has_section("graph"):
        raise ValueError("config needs a [graph] section")
    sec = cp["graph"]
    kind = sec.get("kind")
    if kind is None:
        raise ValueError("[graph] needs 'kind'")
    if "vertices" not in sec:
        raise ValueError("[graph] needs 'vertices'")
    vertices = _parse_int(sec["vertices"], "[graph] vertices")
    liveliness = None
    if "liveliness" in sec:
        liveliness = _parse_int(sec["liveliness"], "[graph] liveliness")
    return WalkGraph(kind, vertices, liveliness)


def _parse_coin(cp: ConfigParser) -> CoinSpec:
    if not cp.has_section("coin"):
        return CoinSpec("xclass", theta=np.pi)
    sec = cp["coin"]
    if "kind" not in sec:
        raise ValueError("[coin] needs 'kind'")
    theta = matrix = None
    if "theta" in sec:
        theta = _parse_float(sec["theta"], "[coin] theta")
    if "matrix" in sec:
        entries = complex_entries(sec["matrix"])
        if len(entries) != 9:
            raise ValueError("[coin] matrix needs nine entries")
        matrix = np.array(entries).reshape(3, 3)
    return CoinSpec(sec["kind"], theta=theta, matrix=matrix)


def _parse_initial(cp: ConfigParser, graph: WalkGraph) -> tuple[np.ndarray, int]:
    labels = graph.labels
    coin_raw = "0" if graph.kind == "dihedral" else "superposition"
    vertex_raw = labels[0]
    if cp.has_section("initial"):
        sec = cp["initial"]
        coin_raw = sec.get("coin", coin_raw)
        vertex_raw = sec.get("vertex", vertex_raw)
    if coin_raw == "superposition":
        amps = _SUPERPOSITION.copy()
    elif coin_raw in ("0", "1", "2"):
        amps = np.zeros(3, dtype=complex)
        amps[int(coin_raw)] = 1
    else:
        raise ValueError(f"[initial] coin must be 0, 1, 2, or superposition, got {coin_raw!r}")
    if vertex_raw not in labels:
        raise ValueError(
            f"[initial] vertex must be a label from {labels[0]!r} to {labels[-1]!r} "
            f"as walk.csv writes it, got {vertex_raw!r}"
        )
    return amps, labels.index(vertex_raw)


def _parse_noise(cp: ConfigParser) -> NoiseConfig:
    if not cp.has_section("noise"):
        return NoiseConfig()
    sec = cp["noise"]
    kwargs: dict = {}
    if "gate" in sec:
        kwargs["gate_noise_enabled"] = _parse_bool(sec["gate"], "[noise] gate")
    if "idle" in sec:
        kwargs["idle_kind"] = sec["idle"]
    if sec.get("idle_scope", "all") != "all":
        raise ValueError("[noise] idle_scope must be 'all': idle damping acts on every wire")
    for key, field in (("p1", "p1"), ("r1", "r1"), ("r2", "r2"), ("t_idle", "t_idle")):
        if key in sec:
            kwargs[field] = _parse_float(sec[key], f"[noise] {key}")
    if "epsilon" in sec:
        kwargs["epsilon_exponent"] = _parse_int(sec["epsilon"], "[noise] epsilon")
    if "seed" in sec:
        kwargs["rng_seed"] = _parse_int(sec["seed"], "[noise] seed")
    return NoiseConfig(**kwargs)


def parse_config(text: str) -> ExperimentConfig:
    cp = ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except Error as exc:
        raise ValueError(f"malformed config: {exc}") from None
    _check_keys(cp)
    graph = _parse_graph(cp)
    coin = _parse_coin(cp)
    amps, vertex = _parse_initial(cp, graph)
    if not cp.has_section("run") or "steps" not in cp["run"]:
        raise ValueError("config needs [run] with 'steps'")
    steps = _parse_int(cp["run"]["steps"], "[run] steps")
    include_t0 = False
    if "average_includes_t0" in cp["run"]:
        include_t0 = _parse_bool(cp["run"]["average_includes_t0"], "[run] average_includes_t0")
    return ExperimentConfig(
        graph=graph,
        coin=coin,
        initial_coin=amps,
        initial_vertex=vertex,
        steps=steps,
        average_includes_t0=include_t0,
        noise=_parse_noise(cp),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def build_initial_state(cfg: ExperimentConfig) -> np.ndarray:
    """Circuit-register state vector for the configured starting point."""
    g = cfg.graph
    psi = np.zeros(3**g.circuit_width, dtype=complex)
    for coin, amp in enumerate(cfg.initial_coin):
        psi[g.basis_index(cfg.initial_vertex, coin)] = amp
    return psi
