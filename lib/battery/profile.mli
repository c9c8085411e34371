(** Current discharge profiles.

    A profile is a finite sequence of non-overlapping intervals, each
    drawing a constant current from the battery.  Gaps between intervals
    are idle periods (zero current) during which the battery recovers.
    Times are in minutes, currents in mA, charges in mA*min throughout
    the repository. *)

type interval = private {
  start : float;     (** interval start time, minutes from 0 *)
  duration : float;  (** interval length, minutes, > 0 *)
  current : float;   (** constant platform current, mA, >= 0 *)
}

type t
(** A validated profile: intervals sorted by start time, pairwise
    non-overlapping, all within [[0, infinity)].  Stored as three
    unboxed float arrays (start/duration/current per interval), so the
    hot sigma evaluators can walk it without per-call allocation — use
    {!start} / {!duration} / {!current} or {!fold_until} rather than
    {!intervals} on hot paths. *)

val empty : t
(** The profile that draws nothing. *)

val of_intervals : (float * float * float) list -> t
(** [of_intervals [(start, duration, current); ...]] validates and sorts.
    Zero-duration intervals are dropped.
    @raise Invalid_argument on negative fields or overlapping
    intervals. *)

val sequential : (float * float) list -> t
(** [sequential [(current, duration); ...]] lays intervals back to back
    from time 0 — the shape produced by a sequential task schedule.
    Zero-duration entries are dropped.
    @raise Invalid_argument on negative currents or durations. *)

val sequential_arrays :
  currents:float array -> durations:float array -> pos:int -> len:int -> t
(** [sequential_arrays ~currents ~durations ~pos ~len] is
    [sequential] of the pairs [(currents.(i), durations.(i))] for [i]
    in [pos .. pos+len-1], read straight from the arrays (which are
    copied, not kept): the schedule-to-profile conversion on the search
    hot path uses this.
    @raise Invalid_argument as {!sequential}, or if the range does not
    lie within both arrays. *)

val constant : current:float -> duration:float -> t
(** A single-interval profile starting at 0. *)

val with_idle : t -> after:float -> idle:float -> t
(** [with_idle p ~after ~idle] shifts every interval starting at or
    after time [after] right by [idle] minutes, opening a recovery gap.
    @raise Invalid_argument on negative [idle]. *)

val intervals : t -> interval list
(** Intervals in increasing start-time order.  Materializes a fresh
    list; prefer {!start} / {!duration} / {!current} or {!fold_until}
    where allocation matters. *)

val num_intervals : t -> int
(** Number of (positive-duration) intervals. *)

val start : t -> int -> float
(** [start t i] is the start of the [i]-th interval (0-based, in start
    order), read in place; with {!duration} and {!current} it lets a
    sigma kernel walk the profile with no closure and no allocation.
    @raise Invalid_argument if [i] is out of range. *)

val duration : t -> int -> float
(** As {!start}, for the interval's duration. *)

val current : t -> int -> float
(** As {!start}, for the interval's current. *)

val fold_until :
  t ->
  at:float ->
  init:'a ->
  f:('a -> start:float -> duration:float -> current:float -> 'a) ->
  'a
(** [fold_until t ~at ~init ~f] folds over the load up to time [at]
    exactly as {!truncate} would expose it — intervals starting at or
    after [at] are skipped, a straddling interval is clipped to
    [at - start] — but lazily, with no profile copy. *)

val length : t -> float
(** End time of the last interval (0 for {!empty}). *)

val total_charge : t -> float
(** Plain coulomb count [sum I_k * Delta_k] (mA*min), i.e. the charge an
    ideal battery would lose. *)

val truncate : t -> at:float -> t
(** [truncate p ~at] keeps only load up to time [at], clipping a
    straddling interval. *)

val superpose : t list -> t
(** [superpose ps] sums the profiles: concurrent currents add, as when
    several processing elements draw from one battery.  The result is
    the step function of the total current, with zero-current stretches
    left as gaps. *)

val peak_current : t -> float
(** Largest interval current (0 for {!empty}). *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering, one interval per line. *)
