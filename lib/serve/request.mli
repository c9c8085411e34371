(** Parsing and validation of [basched serve] requests.

    The wire format is newline-framed JSON: one object per line, either
    a scheduling request or a cancellation.  A request names a task
    graph (inline, in the {!Batsched_taskgraph.Textio} format), a
    deadline, and optional search knobs; defaults match the single-shot
    [basched] CLI so a served request with the same seed and knobs is
    bit-identical to a command-line run.

    {v
    {"id":"r1","deadline":9.0,"algo":"annealing","seed":7,
     "graph":"graph g\ntask A 600:2 350:3 150:5\ntask B 519:3 319:4\nedge A B"}
    {"cancel":"r1"}
    v} *)

open Batsched_taskgraph
open Batsched_battery

type search = {
  algo : string;  (** iterative | iterative-ms | annealing | random *)
  model_name : string;  (** rakhmatov | kibam | peukert | ideal *)
  beta : float;  (** Rakhmatov beta (default: the paper's) *)
  seed : int;  (** RNG seed (default 0) *)
  starts : int;  (** multistart fan-out for iterative-ms (default 4) *)
  steps : int option;  (** annealing steps per temperature level *)
  t0 : float option;  (** annealing initial temperature *)
  samples : int option;  (** random-search sample budget *)
}

type t = { id : string; graph : Graph.t; deadline : float; search : search }

type incoming =
  | Submit of t
  | Cancel of string  (** request id to cancel *)

val algos : string list
val models : string list

val model : search -> Model.t
(** Instantiate the battery model a request asked for. *)

val of_json : string -> (incoming, string) result
(** Parse and validate one request line.  A request that parses always
    runs, and runs bounded work: unknown algos/models, a [deadline],
    [beta] or [t0] that is not positive and finite, and malformed
    graphs are rejected here with a message suitable for an error
    response.  The count knobs must be integers within these caps, and
    the error message names the range:
    - [seed] in [\[0, 1073741823\]] (2{^30} - 1);
    - [starts] in [\[1, 64\]];
    - [steps] in [\[1, 10000\]];
    - [samples] in [\[1, 10000\]]. *)
