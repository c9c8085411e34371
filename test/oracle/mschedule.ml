(* The original multiprocessor list scheduler: [priority] is called
   again for every ready task at every one of the n picks.  Oracle for
   [Batsched_multiproc.Mschedule.list_schedule], which calls it once per
   task; placements must be identical.  Returns the placements indexed
   by task id. *)

open Batsched_taskgraph
open Batsched_sched
module Mschedule = Batsched_multiproc.Mschedule
module Pe = Mschedule.Pe

(* The critical-path priority of [Mheuristics.makespan_fastest]. *)
let downward_rank g =
  let n = Graph.num_tasks g in
  let rank = Array.make n Float.nan in
  let rec compute v =
    if Float.is_nan rank.(v) then begin
      let own = (Task.fastest (Graph.task g v)).Task.duration in
      let tail =
        List.fold_left
          (fun acc u -> compute u; Float.max acc rank.(u))
          0.0 (Graph.succs g v)
      in
      rank.(v) <- own +. tail
    end
  in
  for v = 0 to n - 1 do
    compute v
  done;
  fun v -> rank.(v)

let list_schedule g ~(pes : Pe.t array) ~assignment ~priority =
  let n = Graph.num_tasks g in
  let num_pes = Array.length pes in
  let remaining = Array.init n (fun i -> List.length (Graph.preds g i)) in
  let done_time = Array.make n 0.0 in
  let scheduled = Array.make n false in
  let pe_free = Array.make num_pes 0.0 in
  let placements =
    Array.make n { Mschedule.pe = 0; column = 0; start = 0.0 }
  in
  for _ = 1 to n do
    let best = ref None in
    for v = 0 to n - 1 do
      if (not scheduled.(v)) && remaining.(v) = 0 then begin
        let w = priority v in
        match !best with
        | Some (_, bw) when bw >= w -> ()
        | _ -> best := Some (v, w)
      end
    done;
    match !best with
    | None -> invalid_arg "Mschedule.list_schedule: cyclic graph?"
    | Some (v, _) ->
        let j = Assignment.column assignment v in
        let base = (Task.point (Graph.task g v) j).Task.duration in
        let ready =
          List.fold_left
            (fun acc u -> Float.max acc done_time.(u))
            0.0 (Graph.preds g v)
        in
        let finish_on pe =
          Float.max ready pe_free.(pe) +. (base /. pes.(pe).Pe.speed)
        in
        let best_pe = ref 0 in
        for pe = 1 to num_pes - 1 do
          if finish_on pe < finish_on !best_pe then best_pe := pe
        done;
        let start = Float.max ready pe_free.(!best_pe) in
        placements.(v) <- { Mschedule.pe = !best_pe; column = j; start };
        let f = finish_on !best_pe in
        pe_free.(!best_pe) <- f;
        done_time.(v) <- f;
        scheduled.(v) <- true;
        List.iter
          (fun w -> remaining.(w) <- remaining.(w) - 1)
          (Graph.succs g v)
  done;
  placements
