(** The three sequencing rules used in the paper.

    All are instances of the list-scheduling skeleton
    {!Batsched_taskgraph.Analysis.list_schedule}: among ready tasks the
    largest weight goes first.  Each task is weighed once per call, so
    with [n] tasks and [e] edges a call costs O(n{^2}) for the
    list-scheduling scan plus, for [sequence_dec_energy], O(n m) for
    the average energies ([m] design points), and for
    [weighted_sequence] and [greedy_mean_current] O(n (n + e)) for the
    subgraph sums (one DFS and one id-ordered pass per task). *)

open Batsched_taskgraph

val sequence_dec_energy : Graph.t -> int list
(** The paper's [SequenceDecEnergy]: weight = average energy over the
    task's design points; produces the initial sequence L. *)

val weighted_sequence : Graph.t -> Assignment.t -> int list
(** The paper's [FindWeightedSequence] (Eq. 4): weight of [v] is the
    sum of the {e chosen} design-point currents over the subgraph
    rooted at [v] (including [v]). *)

val greedy_mean_current : Graph.t -> Assignment.t -> int list
(** The sequencing rule of baseline [1] (Eq. 5): weight of [v] is
    [max(I_v, mean I over the subgraph rooted at v)] with chosen
    currents. *)
