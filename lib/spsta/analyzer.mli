(** The SPSTA engine (paper §3): propagates four-value signal
    probabilities and transition t.o.p. functions through a netlist in
    one topological traversal, replacing SSTA's unconditional MIN/MAX
    with the WEIGHTED SUM over input-value combinations (eq. 8/11), with
    MIN/MAX applied only inside multiple-input-switching terms.

    The engine is a functor over the t.o.p. representation; see {!Top}.
    {!Moments}, the moment instantiation, runs on a flat kernel
    ({!Moment_kernel}) bit-identical to [Make (Top.Moment_backend)]. *)

module type S = Analyzer_intf.S
(** An analyzer over t.o.p. functions of type [top]: signals, the
    per-gate step, full and incremental analysis. *)

module Make (B : Top.BACKEND) : S with type top := B.top
(** The record engine: per-net signals on {!Spsta_engine.Propagate}. *)

module Moments : S with type top := Spsta_dist.Mixture.t
(** The default moment/mixture instantiation, on the flat kernel
    {!Moment_kernel}: results are bit-identical to
    [Make (Top.Moment_backend)], its test oracle. *)
