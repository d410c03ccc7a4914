"""Simulated analogue oracle for balanced-partition decisions.

A cascade of four-quadrant multipliers turns an integer instance into a
product of cosines whose DC component is nonzero exactly when the instance
splits into two equal-sum halves.  This package simulates that signal chain
with injectable imperfections, provides exact digital reference solvers,
calibration and threshold learning, a SAT front-end via self-reduction, and
SPICE netlist emission.
"""

from .calibration import (Decision, DecisionThreshold, bootstrap_threshold, compensate,
                          decide_analog, fixed_threshold, measure_stage_offsets,
                          perturb_to_no_instance)
from .dsp import FilterSpec, SampledTrace, apply_lowpass, dc_component, \
    design_compensating_filter, dft, sample_after_filter
from .exact import (Spectrum, analytic_spectrum, decide_bruteforce, decide_dp,
                    decide_meet_in_middle, ideal_dc, solve_exact)
from .instances import (CpiInstance, alignment_time, load_instances, nyquist_frequency,
                        parse_instance, random_instance, scale_instance,
                        serialize_instance)
from .netlist import NetlistDoc, emit_netlist, parse_trace_csv, validate_netlist
from .pipeline import (NonidealityConfig, PipelineTrace, Signal, amplify, multiply_stage,
                       run_cascade, synthesize_sources)
from .reductions import (CnfFormula, OracleBackend, extract_witness, format_solution,
                         parse_dimacs, sat_to_partition, simplify)

__version__ = "0.1.0"
