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

(* Caps on the knobs a request may carry (documented in request.mli):
   every accepted request does bounded work. *)
let max_seed = (1 lsl 30) - 1
let max_starts = 64
let max_steps = 10_000
let max_samples = 10_000

let ( let* ) = Result.bind

let positive_finite name = function
  | Some x when not (Float.is_finite x && x > 0.0) ->
      Error (name ^ " must be positive and finite")
  | _ -> Ok ()

(* An optional count knob: absent, or an integer in [lo, hi]. *)
let bounded_int name ~lo ~hi = function
  | None -> Ok None
  | Some x
    when Float.is_integer x && x >= float_of_int lo && x <= float_of_int hi ->
      Ok (Some (int_of_float x))
  | Some _ -> Error (Printf.sprintf "%s must be an integer in [%d, %d]" name lo hi)

let submit j =
  let str name = Json.str_field name j in
  let num name = Json.num_field name j in
  match (str "id", str "graph", num "deadline") with
  | None, _, _ -> Error "missing field: id"
  | _, None, _ -> Error "missing field: graph"
  | _, _, None -> Error "missing field: deadline"
  | Some id, Some graph_src, Some deadline ->
      let* () = positive_finite "deadline" (Some deadline) in
      let* graph =
        match Textio.of_string graph_src with
        | exception Textio.Parse_error { line; message } ->
            Error (Printf.sprintf "graph line %d: %s" line message)
        | graph -> Ok graph
      in
      let algo = Option.value (str "algo") ~default:"annealing" in
      let model_name = Option.value (str "model") ~default:"rakhmatov" in
      let* () =
        if List.mem algo algos then Ok () else Error ("unknown algo: " ^ algo)
      in
      let* () =
        if List.mem model_name models then Ok ()
        else Error ("unknown model: " ^ model_name)
      in
      let beta = Option.value (num "beta") ~default:Rakhmatov.default_beta in
      let* () = positive_finite "beta" (Some beta) in
      let t0 = num "t0" in
      let* () = positive_finite "t0" t0 in
      let* seed = bounded_int "seed" ~lo:0 ~hi:max_seed (num "seed") in
      let* starts = bounded_int "starts" ~lo:1 ~hi:max_starts (num "starts") in
      let* steps = bounded_int "steps" ~lo:1 ~hi:max_steps (num "steps") in
      let* samples =
        bounded_int "samples" ~lo:1 ~hi:max_samples (num "samples")
      in
      let search =
        { algo;
          model_name;
          beta;
          seed = Option.value seed ~default:0;
          starts = Option.value starts ~default:4;
          steps;
          t0;
          samples }
      in
      Ok (Submit { id; graph; deadline; search })

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
      | None -> submit j)
