(* Simulated annealing costed the original way: every candidate goes
   through a freshly validated schedule and the model's full sigma
   path.  Oracle for [Batsched_baselines.Annealing.run], which walks
   the same neighbourhood on the delta evaluator.  The move draw, the
   no-op repoint skip and the unconditional Metropolis draw replicate
   the production walk exactly, so a fixed seed drives both through
   the same RNG stream; the walk counters are bumped the same way, so
   a bench pair's accepted/rejected/no-op counts must agree too. *)

open Batsched_numeric
open Batsched_taskgraph
open Batsched_sched
open Batsched_baselines

let penalty_rate = 1000.0

type move = Move_swap of int | Move_repoint of int * int

let draw_move ~rng ~n ~m ~swap_ok =
  let repoint () =
    let i = Rng.int rng n in
    let j = Rng.int rng m in
    Move_repoint (i, j)
  in
  let rec attempt tries =
    if tries = 0 then repoint ()
    else if Rng.bool rng then
      if n < 2 then attempt (tries - 1)
      else begin
        let k = Rng.int rng (n - 1) in
        if swap_ok k then Move_swap k else attempt (tries - 1)
      end
    else repoint ()
  in
  attempt 8

type state = { sequence : int array; assignment : Assignment.t }

let energy_of ~model g ~deadline st =
  let sequence = Array.to_list st.sequence in
  let sched = Schedule.make g ~sequence ~assignment:st.assignment in
  let sigma = Schedule.battery_cost ~model g sched in
  let overrun = Float.max 0.0 (Schedule.finish_time g sched -. deadline) in
  (sigma +. (penalty_rate *. overrun), sigma, overrun <= 1e-9, sched)

let swap_ok g st k =
  let a = st.sequence.(k) and b = st.sequence.(k + 1) in
  not (List.mem b (Graph.succs g a))

let apply_move st = function
  | Move_swap k ->
      let seq = Array.copy st.sequence in
      let tmp = seq.(k) in
      seq.(k) <- seq.(k + 1);
      seq.(k + 1) <- tmp;
      { st with sequence = seq }
  | Move_repoint (i, j) -> { st with assignment = Assignment.set st.assignment i j }

let run ?(params = Annealing.default_params) ~rng ~model g ~deadline =
  let sol =
    match Chowdhury.run ~model g ~deadline with
    | sol -> sol
    | exception Chowdhury.Infeasible -> raise Annealing.No_feasible_state
  in
  let n = Graph.num_tasks g and m = Graph.num_points g in
  let st =
    ref
      { sequence = Array.of_list sol.Solution.schedule.Schedule.sequence;
        assignment = sol.Solution.schedule.Schedule.assignment }
  in
  let cur_energy = ref (let e, _, _, _ = energy_of ~model g ~deadline !st in e) in
  let best = ref sol in
  let temperature = ref params.Annealing.initial_temperature in
  let probe = Probe.local () in
  while !temperature > params.Annealing.temperature_floor do
    for _ = 1 to params.Annealing.steps_per_temperature do
      match draw_move ~rng ~n ~m ~swap_ok:(fun k -> swap_ok g !st k) with
      | Move_repoint (i, j) when Assignment.column (!st).assignment i = j ->
          probe.Probe.anneal_noops <- probe.Probe.anneal_noops + 1;
          probe.Probe.anneal_accepted <- probe.Probe.anneal_accepted + 1
      | mv ->
          let cand = apply_move !st mv in
          let e, sigma, feasible, sched = energy_of ~model g ~deadline cand in
          let u = Rng.float rng 1.0 in
          if e <= !cur_energy || u < exp ((!cur_energy -. e) /. !temperature)
          then begin
            probe.Probe.anneal_accepted <- probe.Probe.anneal_accepted + 1;
            st := cand;
            cur_energy := e;
            if feasible && sigma < !best.Solution.sigma then
              best := Solution.of_schedule ~model g sched
          end
          else probe.Probe.anneal_rejected <- probe.Probe.anneal_rejected + 1
    done;
    temperature := !temperature *. params.Annealing.cooling
  done;
  !best
