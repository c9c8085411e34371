open Batsched_taskgraph
open Batsched_battery
module Json = Batsched_obs.Json

type search = {
  algo : string;
  model_name : string;
  beta : float;
  seed : int;
  starts : int;
  steps : int option;
  t0 : float option;
  samples : int option;
}

type t = { id : string; graph : Graph.t; deadline : float; search : search }

type incoming = Submit of t | Cancel of string

let algos = [ "iterative"; "iterative-ms"; "annealing"; "random" ]

let models = [ "rakhmatov"; "kibam"; "peukert"; "ideal" ]

let model s =
  match s.model_name with
  | "ideal" -> Ideal.model
  | "peukert" -> Peukert.model ()
  | "kibam" -> Kibam.model ()
  | "rakhmatov" | _ -> Rakhmatov.model ~beta:s.beta ()

(* One request per line:
     {"id":"r1","graph":"graph g\ntask A 600:2 350:3\n...","deadline":9,
      "algo":"annealing","model":"rakhmatov","seed":7,"steps":8}
   or a cancellation: {"cancel":"r1"}.  Everything but [id], [graph]
   and [deadline] is optional.  Validation happens here, so a request
   that parses always runs. *)
let of_json line =
  match Json.parse line with
  | exception Json.Bad_json msg -> Error ("bad json: " ^ msg)
  | j -> (
      match Json.str_field "cancel" j with
      | Some id -> Ok (Cancel id)
      | None -> (
          let str name = Json.str_field name j in
          let num name = Json.num_field name j in
          match (str "id", str "graph", num "deadline") with
          | None, _, _ -> Error "missing field: id"
          | _, None, _ -> Error "missing field: graph"
          | _, _, None -> Error "missing field: deadline"
          | Some id, Some graph_src, Some deadline -> (
              if deadline <= 0.0 then Error "deadline must be positive"
              else
                match Textio.of_string graph_src with
                | exception Textio.Parse_error { line; message } ->
                    Error (Printf.sprintf "graph line %d: %s" line message)
                | graph ->
                    let algo =
                      Option.value (str "algo") ~default:"annealing"
                    in
                    let model_name =
                      Option.value (str "model") ~default:"rakhmatov"
                    in
                    if not (List.mem algo algos) then
                      Error ("unknown algo: " ^ algo)
                    else if not (List.mem model_name models) then
                      Error ("unknown model: " ^ model_name)
                    else
                      let search =
                        { algo;
                          model_name;
                          beta =
                            Option.value (num "beta")
                              ~default:Rakhmatov.default_beta;
                          seed =
                            int_of_float (Option.value (num "seed") ~default:0.0);
                          starts =
                            int_of_float
                              (Option.value (num "starts") ~default:4.0);
                          steps = Option.map int_of_float (num "steps");
                          t0 = num "t0";
                          samples = Option.map int_of_float (num "samples") }
                      in
                      let positive = function
                        | Some x -> Float.is_finite x && x > 0.0
                        | None -> true
                      in
                      if not (positive (Some search.beta)) then
                        Error "beta must be positive and finite"
                      else if not (positive search.t0) then
                        Error "t0 must be positive and finite"
                      else if search.starts < 1 then Error "starts must be >= 1"
                      else if
                        match search.steps with Some s -> s < 1 | None -> false
                      then Error "steps must be >= 1"
                      else if
                        match search.samples with
                        | Some s -> s < 1
                        | None -> false
                      then Error "samples must be >= 1"
                      else Ok (Submit { id; graph; deadline; search }))))
