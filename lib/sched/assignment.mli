(** Design-point assignments.

    An assignment maps every task of a graph to one design-point column
    (0-based, column 0 = fastest / highest power, column [m-1] = slowest
    / lowest power).  This is the dense-vector reading of the paper's
    selection matrix [S]: [S(i,j) = 1] iff [column i = j].  Values are
    immutable; [set] returns an updated copy. *)

open Batsched_taskgraph

type t

val all_fastest : Graph.t -> t
(** Every task at column 0 — the paper's [E_max] configuration. *)

val all_lowest_power : Graph.t -> t
(** Every task at column [m-1] — the initial state of the paper's [S]
    and the [E_min] configuration. *)

val of_list : Graph.t -> int list -> t
(** [of_list g cols] with one 0-based column per task in id order.
    @raise Invalid_argument on length mismatch or out-of-range
    column. *)

val init : Graph.t -> (int -> int) -> t
(** [init g f] gives task [i] the column [f i], calling [f] once per
    task in id order.
    @raise Invalid_argument on an out-of-range column. *)

val column : t -> int -> int
(** [column a i] is the chosen column of task [i].
    @raise Invalid_argument if out of range. *)

val set : t -> int -> int -> t
(** [set a i j] rebinds task [i] to column [j] (functional update).
    @raise Invalid_argument on out-of-range task or column. *)

val to_list : t -> int list
(** Columns in task-id order. *)

val chosen_point : Graph.t -> t -> int -> Task.design_point
(** The design point selected for task [i]. *)

val total_time : Graph.t -> t -> float
(** Serial execution time: sum of chosen durations over all tasks. *)

val total_energy : Graph.t -> t -> float
(** Sum of [I * V * D] over chosen points — the paper's [E_n]. *)

val total_charge : Graph.t -> t -> float
(** Sum of [I * D] over chosen points (mA*min). *)

val equal : t -> t -> bool

val pp_paper : Graph.t -> Format.formatter -> t -> unit
(** Paper notation: ["P5,P1,P2,..."] — 1-based column of each task in
    id order, as in Table 2's DP rows. *)
