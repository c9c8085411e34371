(** Design-point selection for a fixed sequence — the paper's
    [ChooseDesignPoints] and [CalculateDPF] (Figs. 1–2).

    Walking the sequence from the last task to the first, each task is
    "tagged" at every column the window allows; the suitability
    [B = SR + CR + ENR + CIF + DPF] of each tagging is evaluated against
    a hypothetical completion of the still-free prefix, and the column
    with the least [B] is fixed.  Columns are 0-based (0 = fastest);
    a window [ws] allows columns [ws .. m-1].

    {2 Incremental evaluation}

    One call costs O(n·m·log n).  With S = m-1-ws, the upgrade loop's
    steps sit in fixed slots: the task of energy rank r owns slots
    r·S .. r·S+S-1, and a slot is live while its task is free.  A
    segment tree over the slots carries the hypothetical completion
    across tagged positions: each trial is one root-to-leaf descent
    for the smallest applied prefix that meets the deadline, and moving
    to the next position rewrites the slots of two tasks.  The
    per-graph tables are built once per graph and cached per domain,
    and the tree and its prefix arrays live in a per-domain workspace
    that grows on demand and is reset, not reallocated, per call
    (derivation in DESIGN.md §9).  The descent relies on no upgrade
    step lengthening a task, i.e. on durations rising with the column
    index, which {!Batsched_taskgraph.Task.make} guarantees.  The seed
    per-trial
    implementation is the test oracle (test/oracle/choose.ml); the
    property tests pin selection identity on the published instances
    and on random DAGs, and metric agreement to within 1e-9 (the only
    deviation is summation rounding, a few ulps). *)

open Batsched_taskgraph
open Batsched_sched

type dpf_result = {
  enr : float;
  cif : float;
  dpf : float;           (** [infinity] if the tagging is infeasible *)
  hypothetical : Assignment.t;
      (** the free-prefix completion used for ENR/CIF: free tasks parked
          at lowest power, upgraded lowest-average-energy-first until
          the deadline holds *)
}

val calculate_dpf :
  Config.t -> Graph.t -> sequence:int array -> assignment:Assignment.t ->
  tagged_pos:int -> window_start:int -> dpf_result
(** [calculate_dpf cfg g ~sequence ~assignment ~tagged_pos ~window_start]
    evaluates the paper's [CalculateDPF] for the task at position
    [tagged_pos]: [assignment] must already hold the fixed suffix
    (positions after [tagged_pos]), the tagged column at [tagged_pos],
    and all earlier (free) tasks at the lowest-power column.  Free
    tasks are upgraded one column at a time, in increasing
    average-energy order, until the serial time meets the deadline;
    running out of upgrades yields [dpf = infinity].  When
    [tagged_pos = 0] (no free task remains) [dpf] is the slack ratio of
    the complete assignment, per the pseudocode's last-task rule.
    @raise Invalid_argument if a free task is not at the lowest-power
    column. *)

val column_time : Graph.t -> int -> float
(** [column_time g j] is {!Batsched_taskgraph.Analysis.column_time},
    read from the per-graph table cache.
    @raise Invalid_argument if [j] is out of range. *)

val choose_design_points :
  Config.t -> Graph.t -> sequence:int list -> window_start:int ->
  Assignment.t
(** The paper's [ChooseDesignPoints]: returns the committed assignment
    for [sequence] under the window.  The last task is fixed at the
    slowest column that leaves the remaining tasks feasible at the
    window's fastest column (the paper unconditionally uses the
    lowest-power column, which only works with enough slack — see
    DESIGN.md); every other task gets the column minimizing [B], ties
    resolving to the lower-power column.
    @raise Invalid_argument if [sequence] is not a linearization or
    [window_start] is out of range.
    @raise Config.Deadline_unmeetable if no feasible choice exists for
    some task (cannot happen when [window_start] satisfies
    [Analysis.column_time g window_start <= deadline]). *)

val unsafe_choose :
  Config.t -> Graph.t -> seq:int array -> window_start:int -> Assignment.t
(** [choose_design_points] on a sequence the caller has already
    validated, as an array: neither the linearization nor the window
    range is re-checked.  {!Window.evaluate} validates its sequence
    once per sweep and uses this for every window. *)
