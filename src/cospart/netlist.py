"""SPICE netlist emission and transient-trace import.

Multipliers are emitted as behavioral sources (vendor device models are not
redistributable); amplifiers as ideal voltage-controlled sources.  A comment
card marks where a real multiplier subcircuit would be substituted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dsp import FilterSpec, SampledTrace
from .instances import CpiInstance, alignment_time, nyquist_frequency
from .pipeline import NonidealityConfig, _per_stage, bandwidth_exceeded, \
    validate_stage_sequences

BURN_IN_PERIODS = 12
WINDOW_PERIODS = 18


@dataclass
class NetlistDoc:
    """An ordered list of SPICE cards plus the stage-to-node mapping."""

    title: str
    cards: list[str] = field(default_factory=list)
    node_map: dict[int, str] = field(default_factory=dict)
    tran: tuple[float, float, float] = (0.0, 0.0, 0.0)  # (maxstep, start, stop)

    def text(self) -> str:
        return "\n".join(self.cards) + "\n"


def _si(value: float) -> str:
    return f"{value:.10g}"


def emit_netlist(inst: CpiInstance, cfg: NonidealityConfig, spec: FilterSpec) -> NetlistDoc:
    """Compile an instance and configuration into a behavioral netlist.

    Sources are cosine waves (sine with 90 degree phase) at f_base * a_i;
    the transient window starts after 12 alignment periods and spans 18,
    reproducing the reference analysis window for gcd-1 instances.
    """
    if inst.n < 2:
        raise ValueError("a netlist needs at least two sources")
    validate_stage_sequences(cfg, inst.n)
    t_align = float(alignment_time(inst)) / cfg.f_base
    start = BURN_IN_PERIODS * t_align
    stop = start + WINDOW_PERIODS * t_align
    maxstep = min(2e-6, 1.0 / (2.0 * nyquist_frequency(inst) * cfg.f_base * cfg.oversample))
    n_stages = inst.n - 1

    doc = NetlistDoc(title=f"cosine product cascade, {inst.n} sources")
    cards = doc.cards
    cards.append(f"* {doc.title}")
    cards.append(f"* instance: {' '.join(str(v) for v in inst.values)}")
    if bandwidth_exceeded(inst, cfg):
        cards.append(f"* WARNING: sum of source frequencies {_si(inst.total * cfg.f_base)} Hz "
                     f"exceeds the multiplier bandwidth f*={_si(cfg.bandwidth_f_star)} Hz")
    cards.append("* multipliers are behavioral; substitute the vendor 4-quadrant")
    cards.append("* multiplier subcircuit here for device-level studies")
    cards.append("* convergence workaround (not emitted as an active card):")
    cards.append("* .option cshunt=2e-15")

    for i, a in enumerate(inst.values, start=1):
        amp = _per_stage(cfg.source_amplitude, i - 1)
        cards.append(f"V{i} src{i} 0 SINE(0 {_si(amp)} {_si(a * cfg.f_base)} 0 0 90)")

    prev = "src1"
    for k in range(1, n_stages + 1):
        cards.append(f"VZ{k} z{k} 0 DC {_si(_per_stage(cfg.z_compensation, k - 1))}")
        cards.append(f"BM{k} m{k} 0 V=V({prev})*V(src{k + 1})*{_si(cfg.mult_scale)}+V(z{k})")
        cards.append(f"EA{k} s{k} 0 m{k} 0 {_si(cfg.amp_gain)}")
        doc.node_map[k] = f"s{k}"
        prev = f"s{k}"

    out = prev
    if spec.kind != "none":
        if spec.kind == "brickwall":
            cards.append("* ideal brickwall is not realizable; emitting the RC equivalent")
        r = 1000.0
        c = 1.0 / (2.0 * math.pi * spec.cutoff_f0 * r)
        for k in range(1, spec.order + 1):
            cards.append(f"RF{k} {out} lp{k} {_si(r)}")
            cards.append(f"CF{k} lp{k} 0 {_si(c)}")
            cards.append(f"EF{k} lpb{k} 0 lp{k} 0 {_si(spec.per_stage_gain)}")
            out = f"lpb{k}"
    cards.append(f"EOUT out 0 {out} 0 1")

    cards.append(f".tran 0 {_si(stop)} {_si(start)} {_si(maxstep)}")
    cards.append(f".four {_si(inst.gcd * cfg.f_base)} V(out)")
    cards.append(".end")
    doc.tran = (maxstep, start, stop)
    return doc


_ELEMENT_PREFIXES = ("V", "B", "E", "R", "C", "I", "L", "X")


def validate_netlist(doc: NetlistDoc) -> None:
    """Cheap grammar check: card syntax, directives, stage connectivity.

    Raises:
        ValueError: on a malformed card, a missing/inconsistent .tran or
            .four directive, or a dangling stage output node.
    """
    tran_cards = [c for c in doc.cards if c.startswith(".tran")]
    if len(tran_cards) != 1:
        raise ValueError("netlist must contain exactly one .tran directive")
    parts = tran_cards[0].split()
    if len(parts) != 5:
        raise ValueError(f"malformed .tran card: {tran_cards[0]!r}")
    _, step0, stop, start, maxstep = parts
    if not (float(stop) > float(start) >= 0 and float(maxstep) > 0):
        raise ValueError("inconsistent .tran window")
    if not any(c.startswith(".four") for c in doc.cards):
        raise ValueError("netlist must contain a .four directive")
    if not any(c.strip() == ".end" for c in doc.cards):
        raise ValueError("netlist must end with .end")

    for card in doc.cards:
        if not card.strip():
            raise ValueError("empty card")
        if card.startswith("*") or card.startswith("."):
            continue
        tokens = card.split()
        if tokens[0][0].upper() not in _ELEMENT_PREFIXES:
            raise ValueError(f"unknown element card: {card!r}")
        if len(tokens) < 3:
            raise ValueError(f"element card too short: {card!r}")

    element_cards = [c for c in doc.cards
                     if c and not c.startswith("*") and not c.startswith(".")]

    def input_nodes(card: str) -> list[str]:
        for ch in "()*+=":
            card = card.replace(ch, " ")
        tokens = card.split()
        kind = tokens[0][0].upper()
        if kind in "RCL":
            return tokens[1:3]      # both terminals
        if kind == "E":
            return tokens[3:5]      # control pair
        if kind == "B":
            return tokens[3:]       # expression nodes
        return []                   # independent sources consume nothing

    for node in doc.node_map.values():
        consumers = sum(1 for c in element_cards if node in input_nodes(c))
        if consumers != 1:
            raise ValueError(f"stage output node {node} must feed exactly one "
                             f"downstream element, found {consumers}")


def parse_trace_csv(text: str) -> SampledTrace:
    """Read a two-column (time, volts) trace from an external simulator.

    Comment lines (``#`` or ``;``) are skipped, and one header row is
    tolerated before the first data row, as `pipeline.xy_csv` writes it.
    Non-uniform time steps (variable step transient output) are resampled
    onto a uniform grid by linear interpolation and flagged as such.
    """
    times: list[float] = []
    volts: list[float] = []
    rows = [s for s in map(str.strip, text.splitlines()) if s and s[0] not in "#;"]
    for i, row in enumerate(rows):
        parts = row.replace(",", " ").split()
        try:
            t, v = float(parts[0]), float(parts[1])
        except (ValueError, IndexError):
            if i == 0:
                continue  # the header row
            raise ValueError(f"bad trace row: {row!r}") from None
        times.append(t)
        volts.append(v)
    if len(times) < 2:
        raise ValueError("trace needs at least two rows")
    t = np.asarray(times)
    v = np.asarray(volts)
    steps = np.diff(t)
    if np.any(steps <= 0):
        raise ValueError("trace time column must be strictly increasing")
    tau = float(np.mean(steps))
    uniform = bool(np.all(np.abs(steps - tau) <= 1e-6 * tau))
    if uniform:
        return SampledTrace(t_start=float(t[0]), tau=tau, values=v)
    grid = np.linspace(t[0], t[-1], len(t))
    resampled = np.interp(grid, t, v)
    return SampledTrace(t_start=float(t[0]), tau=float(grid[1] - grid[0]),
                        values=resampled, resampled=True)
