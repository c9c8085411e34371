(* The original linearization check: it materializes the sorted edge
   list of the graph ([Graph.edges]) and tests every edge against the
   position table.  Oracle for [Batsched_taskgraph.Analysis.is_topological],
   whose production path walks the successor lists in place; the
   verdicts must agree on every input. *)

open Batsched_taskgraph

let is_topological g seq =
  let n = Graph.num_tasks g in
  if List.length seq <> n then false
  else begin
    let position = Array.make n (-1) in
    let ok = ref true in
    List.iteri
      (fun pos v ->
        if v < 0 || v >= n || position.(v) >= 0 then ok := false
        else position.(v) <- pos)
      seq;
    !ok
    && List.for_all
         (fun (a, b) -> position.(a) < position.(b))
         (Graph.edges g)
  end
