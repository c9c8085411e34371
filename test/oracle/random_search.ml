(* Random search costed the original way: one validated schedule and
   one full-model solution record per sample.  Oracle for
   [Batsched_baselines.Random_search.run]; the draws (assignment first,
   then sequence) replicate the production loop, so a fixed seed gives
   both the same samples. *)

open Batsched_numeric
open Batsched_taskgraph
open Batsched_sched
open Batsched_baselines

let random_feasible_assignment ~rng g ~deadline =
  let n = Graph.num_tasks g and m = Graph.num_points g in
  let duration i j = (Task.point (Graph.task g i) j).Task.duration in
  let columns = Array.init n (fun _ -> Rng.int rng m) in
  let total () = Kahan.sum_fn n (fun i -> duration i columns.(i)) in
  let rec repair attempts =
    if total () <= deadline +. 1e-9 then Some (Array.to_list columns)
    else begin
      let candidates =
        List.filter (fun i -> columns.(i) > 0) (List.init n Fun.id)
      in
      if candidates = [] || attempts = 0 then None
      else begin
        let i = Rng.pick rng candidates in
        columns.(i) <- columns.(i) - 1;
        repair (attempts - 1)
      end
    end
  in
  Option.map (Assignment.of_list g) (repair (n * m))

let run ?(samples = 200) ~rng ~model g ~deadline =
  let best = ref None in
  for _ = 1 to samples do
    match random_feasible_assignment ~rng g ~deadline with
    | None -> ()
    | Some assignment -> (
        let sequence = Random_search.random_sequence ~rng g in
        let sol =
          Solution.of_schedule ~model g (Schedule.make g ~sequence ~assignment)
        in
        match !best with
        | Some b when b.Solution.sigma <= sol.Solution.sigma -> ()
        | _ -> best := Some sol)
  done;
  match !best with
  | Some s -> s
  | None -> raise Random_search.No_feasible_sample
