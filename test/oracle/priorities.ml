(* The original list scheduler and Eq. 4/5 weights: every one of the n
   picks re-weighs every ready task, and each subtree weight runs a
   fresh [Analysis.descendants] DFS and a boxed [Kahan.sum_list] — so
   one call costs O(n^2 (n+e)).  Oracle for
   [Batsched_taskgraph.Analysis.list_schedule] and
   [Batsched_sched.Priorities], whose production paths weigh each task
   once per call; sequences must be list-equal. *)

open Batsched_numeric
open Batsched_taskgraph
open Batsched_sched

let list_schedule ~weight g =
  let n = Graph.num_tasks g in
  let remaining_preds = Array.init n (fun i -> List.length (Graph.preds g i)) in
  let scheduled = Array.make n false in
  let rec step acc count =
    if count = n then List.rev acc
    else begin
      let best = ref None in
      for v = 0 to n - 1 do
        if (not scheduled.(v)) && remaining_preds.(v) = 0 then begin
          let w = weight v in
          match !best with
          | Some (_, bw) when bw >= w -> ()
          | _ -> best := Some (v, w)
        end
      done;
      match !best with
      | None -> invalid_arg "Analysis.list_schedule: graph not acyclic?"
      | Some (v, _) ->
          scheduled.(v) <- true;
          List.iter
            (fun w -> remaining_preds.(w) <- remaining_preds.(w) - 1)
            (Graph.succs g v);
          step (v :: acc) (count + 1)
    end
  in
  step [] 0

let sequence_dec_energy g =
  let weight v = Task.average_energy (Graph.task g v) in
  list_schedule ~weight g

let chosen_current g a v = (Assignment.chosen_point g a v).Task.current

(* The Eq. 4 weight of [v]; also the subtree-current priority of the
   multiprocessor [battery_aware] re-sequencing. *)
let subtree_current g a v =
  Kahan.sum_list (List.map (chosen_current g a) (Analysis.descendants g v))

let weighted_sequence g a = list_schedule ~weight:(subtree_current g a) g

let greedy_mean_current g a =
  let weight v =
    let subtree = Analysis.descendants g v in
    let mean =
      Kahan.sum_list (List.map (chosen_current g a) subtree)
      /. float_of_int (List.length subtree)
    in
    Float.max (chosen_current g a v) mean
  in
  list_schedule ~weight g
