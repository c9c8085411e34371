(** Work counters for the hot paths, kept in per-domain accumulators.

    Counting is {e always on}: every bump is a plain mutable-field
    increment on the calling domain's private record, which costs a
    {!Domain.DLS} read, one generation load and an integer store —
    noise next to the hashtable probe or float kernel it sits beside.
    Nothing is shared
    between domains while work is running.

    {2 Merging and determinism}

    {!Pool} keeps long-lived worker domains, so a worker
    {!drain_local}s its record into a global accumulator each time it
    checks out of a parallel region or finishes a submitted job (and
    once more when the pool shuts down); the calling domain drains at
    every region join too.  A region's counts are therefore complete in
    {!totals} as soon as the region returns.  Integer addition
    commutes: the merged totals are independent of worker scheduling
    and join order.  The pure work
    counters ([sigma_evals], [dpf_steps], [window_evals], ...) and the
    top-level contribution {e lookup} count (hits + misses) are
    invariant across pool sizes; the hit/miss splits vary with cache
    warmth and worker placement because the memo tables are per-domain,
    and the F-memo counts vary entirely (the Series kernel only runs on
    a contribution-cache miss).

    {2 Run scope}

    {!reset} starts a new run: it zeroes the drained totals and bumps a
    global generation that every domain's record is stamped with.  A
    record from an older generation is cleared by the next {!local} on
    its domain and dropped, not added, by the next {!drain_local} — so
    a persistent pool worker that counted before the reset (even one
    still inside a job when it happened) cannot leak those counts into
    the new run's {!totals}.  [Batsched_obs.Run.start] calls {!reset};
    [Batsched_obs.Report] renders the counters, and the bench harness
    snapshots them into its [--json] rows. *)

type t = {
  mutable sigma_evals : int;      (** RV sigma evaluations *)
  mutable fmemo_hits : int;       (** Series F-memo table hits *)
  mutable fmemo_misses : int;     (** Series F-memo table misses *)
  mutable contrib_hits : int;     (** per-interval contribution cache hits *)
  mutable contrib_misses : int;   (** per-interval contribution cache misses *)
  mutable dpf_steps : int;
      (** CalculateDPF upgrade-loop steps: per tagged position, the
          steps a forward walk from the previous trial's completion
          would apply (the rise in the applied step count, summed) *)
  mutable window_evals : int;     (** windows evaluated (choose + cost) *)
  mutable choose_calls : int;     (** [Choose.choose_design_points] calls *)
  mutable iterations : int;       (** outer iterations of the main loop *)
  mutable anneal_accepted : int;  (** annealing moves accepted *)
  mutable anneal_rejected : int;  (** annealing moves rejected *)
  mutable anneal_noops : int;     (** no-op repoints skipped without evaluation *)
  mutable delta_swaps : int;      (** delta-evaluator swap candidates costed *)
  mutable delta_repoints : int;   (** delta-evaluator repoint candidates costed *)
  mutable delta_commits : int;    (** delta-evaluator moves committed *)
  mutable delta_discards : int;   (** delta-evaluator moves discarded *)
  mutable delta_terms : int;      (** per-position contribution terms recomputed *)
  mutable delta_full_evals : int; (** delta fallbacks to a full model evaluation *)
  mutable batch_evals : int;      (** [Sigma_batch] population sweeps *)
  mutable batch_candidates : int; (** candidate schedules batch-evaluated *)
  mutable batch_fallbacks : int;  (** batch candidates costed without a kernel *)
  mutable fcache_evictions : int; (** Fcache generation flips (half-table expiries) *)
  mutable pool_regions : int;     (** parallel regions actually fanned out *)
  mutable pool_tasks : int;       (** items mapped through [Pool.map_array] *)
  mutable pool_steals : int;      (** chunks stolen between pool workers *)
  mutable named : (string * int) list;
  (** Open-keyed counters for populations too dynamic for a fixed
      field — e.g. ["delta_full_evals/<model>"] attributing fallbacks
      per model name.  Bump via {!bump_named}; merged by key in
      {!add}. *)
}

val local : unit -> t
(** The calling domain's accumulator for the current run (cleared
    first if it still holds counts from before the last {!reset}).
    Bump its fields directly. *)

val zero : unit -> t
(** A fresh all-zero record. *)

val add : into:t -> t -> unit
(** [add ~into c] adds every field of [c] into [into]. *)

val clear : t -> unit
(** Zero every field in place. *)

val drain_local : unit -> unit
(** Merge the calling domain's accumulator into the global totals and
    zero it; an accumulator from before the last {!reset} is zeroed
    without merging.  Called by [Pool] workers before they exit;
    harmless to call at any other time. *)

val totals : unit -> t
(** Global totals: everything drained so far plus the calling domain's
    live accumulator (which is left untouched). *)

val reset : unit -> unit
(** Start a new run: zero the drained totals and retire every domain's
    accumulator (see {e Run scope} above). *)

val fields : (string * (t -> int)) list
(** Stable (name, getter) list driving reports and JSON dumps, in
    declaration order.  Named counters are not included; render them
    via {!named_counts}. *)

val bump_named : t -> string -> int -> unit
(** [bump_named c name v] adds [v] under [name] in [c]'s named
    counters, creating the key on first use. *)

val named_counts : t -> (string * int) list
(** The named counters sorted by key (the assoc list itself carries
    keys in first-bump order, which is not stable across pool
    schedules). *)

(** {2 Distribution observations}

    Counters summarize totals; some hot paths additionally want value
    {e distributions} (Fcache probe lengths, delta commit batch
    sizes).  They report through this hook, which the observability
    layer ([Batsched_obs.Histogram]) installs — keeping this library
    free of an obs dependency.  Sites must guard with [!observing]
    before calling {!observe}, so the disabled cost is one load and a
    branch (no float boxing, no call). *)

val observing : bool ref
(** Whether an observer is installed.  Read, never write. *)

val observe : string -> float -> unit
(** [observe name v] forwards [v] to the installed observer under the
    metric [name].  A no-op (after one branch) when no observer is
    installed. *)

val set_observer : (string -> float -> unit) -> unit
(** Install the observation consumer and raise {!observing}. *)

val clear_observer : unit -> unit
(** Remove the consumer and lower {!observing}. *)
