open Batsched_taskgraph
open Batsched_battery

type t = { sequence : int list; assignment : Assignment.t }

let make g ~sequence ~assignment =
  if not (Analysis.is_topological g sequence) then
    invalid_arg "Schedule.make: sequence is not a topological order";
  { sequence; assignment }

let unsafe_make g ~sequence ~assignment =
  if List.length sequence <> Graph.num_tasks g then
    invalid_arg "Schedule.unsafe_make: sequence length mismatch";
  { sequence; assignment }

(* The chosen points' currents and durations, in sequence order, go
   straight into the two arrays the profile is laid out from. *)
let to_profile g t =
  let n = List.length t.sequence in
  let currents = Array.make n 0.0 and durations = Array.make n 0.0 in
  let rec fill k = function
    | [] -> ()
    | i :: rest ->
        let p = Assignment.chosen_point g t.assignment i in
        currents.(k) <- p.Task.current;
        durations.(k) <- p.Task.duration;
        fill (k + 1) rest
  in
  fill 0 t.sequence;
  Profile.sequential_arrays ~currents ~durations ~pos:0 ~len:n

let finish_time g t = Assignment.total_time g t.assignment

let meets_deadline g t ~deadline = finish_time g t <= deadline +. 1e-9

let battery_cost ~model g t = Model.sigma_end model (to_profile g t)

let currents g t =
  List.map
    (fun i -> (Assignment.chosen_point g t.assignment i).Task.current)
    t.sequence

let pp_sequence g fmt seq =
  Format.pp_print_string fmt
    (String.concat "," (List.map (fun i -> (Graph.task g i).Task.name) seq))

let pp g fmt t =
  pp_sequence g fmt t.sequence;
  Format.pp_print_string fmt " / ";
  let parts =
    List.map
      (fun i -> Printf.sprintf "P%d" (Assignment.column t.assignment i + 1))
      t.sequence
  in
  Format.pp_print_string fmt (String.concat "," parts)
