(** Battery model interface.

    A model maps a discharge profile and an observation instant to the
    *apparent charge lost* sigma (mA*min).  A battery with capacity
    parameter alpha dies at the first instant where sigma reaches alpha.
    Five implementations ship with the library: {!Ideal}, {!Peukert},
    {!Rakhmatov} (the paper's cost function), {!Kibam} and the
    {!Diffusion} PDE reference.

    Each operation has one production path per model: the optional
    fields below ([incremental], [batch], [decay]) are the fast
    kernels, and a model that lacks one takes the generic fallback
    built on [sigma] alone.  The analytical models supply all three;
    the PDE, which exists to validate them, supplies none.  Reference
    oracles for the fast kernels live with the tests (test/oracle). *)

type incremental = {
  term : current:float -> duration:float -> tail:float -> float;
  (** Per-interval contribution to sigma {e at the end of a sequential
      profile}, in suffix-time coordinates: [tail] is the total load
      duration scheduled strictly after the interval.  The contract is

      {[ sigma (sequential ps) ~at:(length (sequential ps))
           = sum_k (term ~current:I_k ~duration:D_k ~tail:tail_k) ]}

      (up to float accumulation noise), where
      [tail_k = sum_{j>k} D_j].  The decomposition holds for the models
      whose sigma is a sum of independent per-interval terms at the
      observation instant — which is exactly what makes delta
      evaluation of local-search moves possible: an adjacent swap
      perturbs two terms, a duration change at position [i] perturbs
      the terms at [0..i] only.  A term with [duration = 0] must be
      exactly [0.].  Only meaningful for gapless back-to-back profiles
      observed at their makespan. *)
  tail_sensitive : bool;
  (** Whether [term] actually reads [tail].  [false] (ideal, Peukert —
      sigma is a makespan-independent sum) lets the delta evaluator
      skip recomputing unchanged terms whose tails moved; [true]
      (Rakhmatov–Vrudhula, KiBaM — the recovery/relaxation component
      depends on how long the interval has to relax before the
      observation instant) forces the [0..i] prefix walk on duration
      changes. *)
}
(** First-class incremental evaluation interface.  See
    {!Delta} for the mutable schedule state built on top of it. *)

type decay = {
  rates : float array;
  (** The distinct relaxation rates [lambda_t] (1/minutes) of the
      model's memory, all [> 0].  Empty for memoryless models (ideal,
      Peukert). *)
  weights : current:float -> duration:float -> float array -> unit;
  (** [weights ~current ~duration buf] writes the channel amplitudes
      [w_t(I, D)] into [buf] (length [>= Array.length rates]). *)
  charge : current:float -> duration:float -> float;
  (** The tail-independent part of the interval's contribution. *)
}
(** Exponential-channel decomposition of the per-interval term: the
    contract is

    {[ term ~current ~duration ~tail
         = charge ~current ~duration
           + sum_t (w_t (current, duration) *. exp (-. rates.(t) *. tail)) ]}

    for {e any} observation instant at or after the interval's end —
    [tail] is wall-clock time from interval end to observation, and the
    identity holds across idle gaps too (rest only decays the channels,
    it forces nothing).  This is strictly stronger than {!incremental}
    (which only speaks at the makespan of a gapless profile): exposing
    the channel structure is what lets {!Periodic} telescope identical
    repeated cycles into per-channel geometric series and advance a
    whole mission in O(1) per cycle.  Models whose sigma is a sum of
    such terms from a full battery: ideal and Peukert (no channels),
    KiBaM (one channel, the diagonalized bound-well disequilibrium),
    Rakhmatov–Vrudhula (one channel per truncated series term).  The
    diffusion PDE has no finite channel set; {!Periodic} costs it on
    its quadratic full-history fallback. *)

type batch = {
  batch_run :
    n:int ->
    currents:float array ->
    durations:float array ->
    tails:float array ->
    sigmas:float array ->
    lo:int ->
    hi:int ->
    unit;
  (** Structure-of-arrays population kernel.  The arrays hold one row of
      [n] floats per candidate (row-major; candidate [p]'s interval [k]
      lives at index [p*n + k]); [tails.(p*n + k)] is the suffix
      duration after interval [k], computed by plain backward adds so
      that [tails.(i) = durations.(i+1) +. tails.(i+1)] bit-exactly.
      Writes the end-of-profile sigma of candidates [lo..hi-1] into
      [sigmas] (one float per candidate, indexed by candidate).  Must
      agree with [sigma] on the equivalent sequential profile to
      float-accumulation noise, and must not allocate per candidate —
      the point is to share series bookkeeping (one [exp] per suffix
      point) across the population. *)
}
(** Batched evaluation for population searches; see {!Sigma_batch}. *)

type t = {
  name : string;
  (** Short identifier used in reports. *)
  sigma : Profile.t -> at:float -> float;
  (** [sigma profile ~at] is the apparent charge lost by time [at]
      (minutes).  Load beyond [at] is ignored.  Note that sigma need
      {e not} be monotone in [at]: for the Rakhmatov–Vrudhula model the
      unavailable-charge component recovers during rest (or light load
      after heavy load), so sigma can dip — which is why lifetime
      estimation looks for the {e first} crossing of alpha. *)
  incremental : incremental option;
  (** The per-interval decomposition of [sigma] at the makespan, when
      the model admits one (ideal, Peukert, Rakhmatov–Vrudhula, KiBaM
      — for KiBaM the two-well affine maps diagonalize in suffix-time
      coordinates, see DESIGN.md §11).  Without one (the diffusion
      PDE) the delta evaluator falls back to a counted full
      re-evaluation per candidate move. *)
  batch : batch option;
  (** Population-batched kernel, when one exists; {!Sigma_batch} falls
      back to sequential [sigma] calls otherwise. *)
  decay : decay option;
  (** Exponential-channel structure of the per-interval term, when the
      model admits one; {!Periodic}'s linear-time endurance kernel
      needs [decay] and otherwise falls back to the quadratic
      full-history path. *)
}

val sigma_end : t -> Profile.t -> float
(** [sigma_end m p] evaluates sigma at the end of the profile — the
    paper's "battery capacity used" figure of merit for a schedule. *)
