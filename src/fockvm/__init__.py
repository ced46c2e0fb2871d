"""Operator-algebra virtual machine over Fock-style machine states.

Subpackages by theme: machine states and measurement (:mod:`state`), the
operator expression evaluator (:mod:`operators`) with exact verification
oracles (:mod:`oracles`), the assembly layer (:mod:`isa`, :mod:`qasm`),
rewrite grammars (:mod:`grammar`), Hamiltonian evolution
(:mod:`evolution`), the one-bit fermionic layer (:mod:`bitlevel`), the
C-like front end (:mod:`qcc`), and the command line (:mod:`cli`).
"""

from .state import (
    Amplitude,
    BasisState,
    Superposition,
    deserialize,
    distance,
    inner_product,
    merge,
    probabilities,
    sample,
    serialize,
    unit,
)
from .operators import (
    FUEL,
    IN,
    OUT,
    PC,
    REGISTER,
    Bra,
    Clear,
    Const,
    Copy,
    Define,
    GuardedPower,
    Identity,
    InstructionOp,
    Location,
    Lower,
    Mem,
    Num,
    NumberOp,
    OperatorExpr,
    Product,
    Raise,
    RecursiveRef,
    ScalarMul,
    SetValue,
    Sum,
    Theta,
    ThetaTheta,
    apply_expr,
    apply_primitive,
    eval_exponent,
    locations,
    product,
    scaled,
    sexpr,
    summation,
)
from .oracles import verify_closed_form
from .qasm import (
    Program,
    RunResult,
    compile_guarded,
    compile_sequential,
    interpret,
    parse_program,
    run_algebraic,
    run_superposed,
)
from .grammar import (
    DerivationPath,
    Grammar,
    Rule,
    derivation_paths,
    parse_grammar,
    pass_distribution,
    pass_outcomes,
    step_successors,
    transition_probability,
)
from .evolution import (
    Hamiltonian,
    build_adder_hamiltonian,
    build_hop_hamiltonian,
    dense_oracle_evolve,
    evolve,
    ladder_via_register,
)
from .bitlevel import BitBasisState, apply_fermi, simplified_form, verify_bit_semantics
from .qcc import lower_direct, lower_to_qasm, parse_c, star_get, star_set

__version__ = "0.1.0"
