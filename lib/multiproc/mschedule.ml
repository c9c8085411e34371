open Batsched_taskgraph
open Batsched_sched
open Batsched_battery

module Pe = struct
  type t = {
    speed : float;
    current_scale : float;
  }

  let default = { speed = 1.0; current_scale = 1.0 }

  let validate p =
    if not (p.speed > 0.0) then invalid_arg "Pe: speed <= 0";
    if not (p.current_scale > 0.0) then invalid_arg "Pe: current_scale <= 0"

  let uniform n =
    if n < 1 then invalid_arg "Pe.uniform: n < 1";
    Array.make n default

  let big_little ~big ~little =
    if big + little < 1 then invalid_arg "Pe.big_little: no cores";
    if big < 0 || little < 0 then invalid_arg "Pe.big_little: negative count";
    Array.append
      (Array.make big default)
      (Array.make little { speed = 0.6; current_scale = 0.35 })
end

type placement = {
  pe : int;
  column : int;
  start : float;
}

type t = {
  pes : Pe.t array;
  placements : placement array;
}

let task_duration g pes i (p : placement) =
  (Task.point (Graph.task g i) p.column).Task.duration /. pes.(p.pe).Pe.speed

let task_current g pes i (p : placement) =
  (Task.point (Graph.task g i) p.column).Task.current
  *. pes.(p.pe).Pe.current_scale

let finish g pes placements i =
  placements.(i).start +. task_duration g pes i placements.(i)

let make g ~pes placements =
  let n = Graph.num_tasks g in
  let num_pes = Array.length pes in
  if num_pes < 1 then invalid_arg "Mschedule.make: no PEs";
  Array.iter Pe.validate pes;
  if List.length placements <> n then
    invalid_arg "Mschedule.make: placement count mismatch";
  let arr = Array.of_list placements in
  let m = Graph.num_points g in
  Array.iter
    (fun p ->
      if p.pe < 0 || p.pe >= num_pes then
        invalid_arg "Mschedule.make: PE out of range";
      if p.column < 0 || p.column >= m then
        invalid_arg "Mschedule.make: column out of range";
      if p.start < -1e-12 then invalid_arg "Mschedule.make: negative start")
    arr;
  (* per-PE non-overlap *)
  for pe = 0 to num_pes - 1 do
    let mine =
      List.filter (fun i -> arr.(i).pe = pe) (List.init n Fun.id)
      |> List.sort (fun a b -> compare arr.(a).start arr.(b).start)
    in
    let rec check = function
      | a :: (b :: _ as rest) ->
          if finish g pes arr a > arr.(b).start +. 1e-9 then
            invalid_arg "Mschedule.make: overlapping tasks on one PE";
          check rest
      | [ _ ] | [] -> ()
    in
    check mine
  done;
  (* dependences *)
  List.iter
    (fun (a, b) ->
      if finish g pes arr a > arr.(b).start +. 1e-9 then
        invalid_arg "Mschedule.make: dependence violated")
    (Graph.edges g);
  { pes; placements = arr }

let list_schedule g ~pes ~assignment ~priority =
  let n = Graph.num_tasks g in
  let num_pes = Array.length pes in
  if num_pes < 1 then invalid_arg "Mschedule.list_schedule: no PEs";
  Array.iter Pe.validate pes;
  let remaining = Array.init n (fun i -> List.length (Graph.preds g i)) in
  let done_time = Array.make n 0.0 in
  let scheduled = Array.make n false in
  let pe_free = Array.make num_pes 0.0 in
  let placements = Array.make n { pe = 0; column = 0; start = 0.0 } in
  let priorities = Array.init n priority in
  for _ = 1 to n do
    (* highest-priority ready task; ties to the smaller id *)
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if
        (not scheduled.(v)) && remaining.(v) = 0
        && (!best < 0 || not (priorities.(!best) >= priorities.(v)))
      then best := v
    done;
    match !best with
    | -1 -> invalid_arg "Mschedule.list_schedule: cyclic graph?"
    | v ->
        let j = Assignment.column assignment v in
        let base = (Task.point (Graph.task g v) j).Task.duration in
        let ready =
          List.fold_left
            (fun acc u -> Float.max acc done_time.(u))
            0.0 (Graph.preds g v)
        in
        (* earliest-finishing PE; ties to the lower index *)
        let finish_on pe =
          Float.max ready pe_free.(pe) +. (base /. pes.(pe).Pe.speed)
        in
        let best_pe = ref 0 in
        for pe = 1 to num_pes - 1 do
          if finish_on pe < finish_on !best_pe then best_pe := pe
        done;
        let start = Float.max ready pe_free.(!best_pe) in
        placements.(v) <- { pe = !best_pe; column = j; start };
        let f = finish_on !best_pe in
        pe_free.(!best_pe) <- f;
        done_time.(v) <- f;
        scheduled.(v) <- true;
        List.iter
          (fun w -> remaining.(w) <- remaining.(w) - 1)
          (Graph.succs g v)
  done;
  { pes; placements }

let placement t i =
  if i < 0 || i >= Array.length t.placements then
    invalid_arg "Mschedule.placement: task out of range";
  t.placements.(i)

let makespan g t =
  let best = ref 0.0 in
  Array.iteri
    (fun i _ -> best := Float.max !best (finish g t.pes t.placements i))
    t.placements;
  !best

let to_profile g t =
  let per_task i =
    let p = t.placements.(i) in
    Profile.of_intervals
      [ (p.start, task_duration g t.pes i p, task_current g t.pes i p) ]
  in
  Profile.superpose (List.init (Array.length t.placements) per_task)

let battery_cost ~model g t = Model.sigma_end model (to_profile g t)

let peak_total_current g t = Profile.peak_current (to_profile g t)

let pp g fmt t =
  Array.iteri
    (fun i p ->
      Format.fprintf fmt "%s: pe%d P%d [%.1f..%.1f]@."
        (Graph.task g i).Task.name p.pe (p.column + 1) p.start
        (finish g t.pes t.placements i))
    t.placements
