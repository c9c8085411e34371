(** Window search over design-point columns — the paper's
    [EvaluateWindows].

    A window with start [ws] restricts selection to columns
    [ws .. m-1] (the paper's "[ws+1]:m" in 1-based notation, cf. its
    Figure 3).  The search begins at the narrowest feasible window and
    widens one column at a time down to the full matrix, running
    {!Choose.choose_design_points} under each and keeping the
    assignment with the least battery cost. *)

open Batsched_taskgraph
open Batsched_sched

type window_result = {
  window_start : int;        (** 0-based first allowed column *)
  assignment : Assignment.t;
  sigma : float;             (** battery cost of (sequence, assignment) *)
  finish : float;            (** serial completion time, minutes *)
}

type t = {
  per_window : window_result list;  (** in evaluation order (narrow to wide) *)
  best : window_result;             (** least sigma; ties keep the earlier *)
}

val initial_window_start : Config.t -> Graph.t -> int
(** Largest [ws] in [0 .. m-2] whose all-column-[ws] serial time meets
    the deadline.
    @raise Config.Deadline_unmeetable if even [ws = 0] (all tasks at
    their fastest) misses it. *)

val evaluate : Config.t -> Graph.t -> sequence:int list -> t
(** Run the full window sweep for one sequence.  Window evaluations
    are independent and fan out over [cfg.pool]; [per_window] order,
    [best] and its ties are bit-identical to a sequential sweep.  The
    sequence is validated once, in O(n + e), before the sweep.
    @raise Config.Deadline_unmeetable as {!initial_window_start}.
    @raise Invalid_argument if [sequence] is not a linearization. *)

val mask : Graph.t -> window_start:int -> (int * bool) list
(** [mask g ~window_start] is the Figure-3 view of a window: each
    column index paired with whether the window admits it. *)
