open Batsched_numeric
open Batsched_battery

type device = {
  index : int;
  model_index : int;
  periodic : Periodic.device;
}

let base ~seed = Splitmix.create seed

let uniform g (r : Spec.range) = r.Spec.lo +. ((r.Spec.hi -. r.Spec.lo) *. Splitmix.float01 g)

(* Weighted model choice: one float01 draw scaled to the total weight,
   resolved by a cumulative walk in spec order. *)
let pick_model g (models : Spec.weighted_model list) =
  let total = List.fold_left (fun a m -> a +. m.Spec.weight) 0.0 models in
  let u = Splitmix.float01 g *. total in
  let rec walk i acc = function
    | [] -> i - 1 (* float noise at the top edge: keep the last entry *)
    | m :: rest ->
        let acc = acc +. m.Spec.weight in
        if u < acc then i else walk (i + 1) acc rest
  in
  walk 0 0.0 models

let cycle_profile g (spec : Spec.cycle_spec) =
  match spec with
  | Spec.Graph { graph; law; _ } ->
      let tasks = Array.of_list (Batsched_taskgraph.Graph.tasks graph) in
      let n = Array.length tasks in
      let currents = Array.make n 0.0 and durations = Array.make n 0.0 in
      (* one column draw per task, in id order *)
      for i = 0 to n - 1 do
        let task = tasks.(i) in
        let col =
          match law with
          | Spec.Fastest -> 0
          | Spec.Slowest -> Batsched_taskgraph.Task.num_points task - 1
          | Spec.Uniform ->
              Splitmix.rand_below g (Batsched_taskgraph.Task.num_points task)
        in
        let dp = Batsched_taskgraph.Task.point task col in
        currents.(i) <- dp.Batsched_taskgraph.Task.current;
        durations.(i) <- dp.Batsched_taskgraph.Task.duration
      done;
      Profile.sequential_arrays ~currents ~durations ~pos:0 ~len:n
  | Spec.Bursts { count; current; duration } ->
      let n = Stdlib.max 1 (int_of_float (uniform g count)) in
      (* explicit loop: the per-burst draw order is part of the format *)
      let currents = Array.make n 0.0 and durations = Array.make n 0.0 in
      for i = 0 to n - 1 do
        let c = uniform g current in
        let d = uniform g duration in
        currents.(i) <- c;
        durations.(i) <- d
      done;
      Profile.sequential_arrays ~currents ~durations ~pos:0 ~len:n

let device (spec : Spec.t) ~base:b i =
  if i < 0 then invalid_arg "Sampler.device: negative index";
  let g = Splitmix.substream b i in
  let model_index = pick_model g spec.Spec.models in
  let wm = List.nth spec.Spec.models model_index in
  (* model parameters are drawn before alpha even for the PDE, whose
     model value also needs alpha: remember the draws, build below *)
  let model_ctor =
    match wm.Spec.model with
    | Spec.Ideal -> `Ready Ideal.model
    | Spec.Peukert { exponent; reference_current } ->
        let exponent = uniform g exponent in
        let reference_current = uniform g reference_current in
        `Ready (Peukert.model ~exponent ~reference_current ())
    | Spec.Rakhmatov { beta; terms } ->
        `Ready (Rakhmatov.model ~terms ~beta:(uniform g beta) ())
    | Spec.Kibam { c; k_prime } ->
        let c = uniform g c in
        let k_prime = uniform g k_prime in
        (* KiBaM sigma is capacity-independent (the full battery starts
           at equilibrium and capacity cancels), so any placeholder
           capacity gives the same lifetime against the drawn alpha *)
        `Ready
          (Kibam.model
             ~params:(Kibam.make_params ~capacity:1.0 ~c ~k_prime)
             ())
    | Spec.Pde { beta; nodes; dt } ->
        let beta = uniform g beta in
        `Needs_alpha
          (fun alpha ->
            Diffusion.model
              ~params:(Diffusion.make_params ~nodes ~dt ~alpha ~beta ())
              ())
  in
  (* documented draw order: alpha, then soh, then cycle, then period
     factor — explicit lets because OCaml evaluates operands
     right-to-left *)
  let rated = uniform g spec.Spec.alpha in
  let soh = uniform g spec.Spec.soh in
  let alpha = rated *. soh in
  let cycle = cycle_profile g spec.Spec.cycle in
  let factor = uniform g spec.Spec.period_factor in
  let period = Profile.length cycle *. factor in
  let model =
    match model_ctor with `Ready m -> m | `Needs_alpha f -> f alpha
  in
  { index = i;
    model_index;
    periodic = { Periodic.model; alpha; period; cycle } }
