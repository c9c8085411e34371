open Batsched_numeric

(* One pass places every id and rejects a repeat or an out-of-range
   id; a second walks each task's successor list.  O(n + e), with no
   edge list built. *)
let is_topological g seq =
  let n = Graph.num_tasks g in
  let position = Array.make n (-1) in
  let rec place pos = function
    | [] -> pos = n
    | v :: rest ->
        if pos >= n || v < 0 || v >= n || position.(v) >= 0 then false
        else begin
          position.(v) <- pos;
          place (pos + 1) rest
        end
  in
  let rec before p = function
    | [] -> true
    | w :: rest -> p < position.(w) && before p rest
  in
  let rec edges v =
    v >= n || (before position.(v) (Graph.succs g v) && edges (v + 1))
  in
  place 0 seq && edges 0

(* Each task is weighed once, up front; the n picks then scan the
   weight array.  The scan goes v = 0 .. n-1 and only a strictly larger
   weight displaces the incumbent ([not (bw >= w)], so a NaN on either
   side displaces too), so equal weights resolve to the smaller id —
   the deterministic rule documented in DESIGN.md. *)
let list_schedule ~weight g =
  let n = Graph.num_tasks g in
  (* typed, or the comparison below is the boxing polymorphic one *)
  let weights : float array = Array.init n weight in
  let remaining_preds = Array.init n (fun i -> List.length (Graph.preds g i)) in
  let scheduled = Array.make n false in
  let rec step acc count =
    if count = n then List.rev acc
    else begin
      let best = ref (-1) in
      for v = 0 to n - 1 do
        if
          (not scheduled.(v)) && remaining_preds.(v) = 0
          && (!best < 0 || not (weights.(!best) >= weights.(v)))
        then best := v
      done;
      let v = !best in
      if v < 0 then invalid_arg "Analysis.list_schedule: graph not acyclic?";
      scheduled.(v) <- true;
      List.iter
        (fun w -> remaining_preds.(w) <- remaining_preds.(w) - 1)
        (Graph.succs g v);
      step (v :: acc) (count + 1)
    end
  in
  step [] 0

let any_topological_order g = list_schedule ~weight:(fun _ -> 0.0) g

let all_topological_orders ?(limit = 1_000_000) g =
  let n = Graph.num_tasks g in
  let remaining_preds = Array.init n (fun i -> List.length (Graph.preds g i)) in
  let scheduled = Array.make n false in
  let results = ref [] and count = ref 0 in
  let rec go acc depth =
    if !count >= limit then ()
    else if depth = n then begin
      incr count;
      results := List.rev acc :: !results
    end
    else
      for v = 0 to n - 1 do
        if (not scheduled.(v)) && remaining_preds.(v) = 0 && !count < limit
        then begin
          scheduled.(v) <- true;
          List.iter
            (fun w -> remaining_preds.(w) <- remaining_preds.(w) - 1)
            (Graph.succs g v);
          go (v :: acc) (depth + 1);
          List.iter
            (fun w -> remaining_preds.(w) <- remaining_preds.(w) + 1)
            (Graph.succs g v);
          scheduled.(v) <- false
        end
      done
  in
  go [] 0;
  List.rev !results

let count_topological_orders ?limit g =
  List.length (all_topological_orders ?limit g)

let descendants g v =
  let n = Graph.num_tasks g in
  if v < 0 || v >= n then invalid_arg "Analysis.descendants: id out of range";
  let seen = Array.make n false in
  let rec visit u =
    if not seen.(u) then begin
      seen.(u) <- true;
      List.iter visit (Graph.succs g u)
    end
  in
  visit v;
  List.filter (fun i -> seen.(i)) (List.init n Fun.id)

let column_time g j =
  let m = Graph.num_points g in
  if j < 0 || j >= m then invalid_arg "Analysis.column_time: column out of range";
  Kahan.sum_list
    (List.map (fun t -> (Task.point t j).Task.duration) (Graph.tasks g))

let serial_time_bounds g =
  let m = Graph.num_points g in
  (column_time g 0, column_time g (m - 1))

let current_range g =
  List.fold_left
    (fun (lo, hi) t -> (Float.min lo (Task.min_current t), Float.max hi (Task.max_current t)))
    (Float.infinity, Float.neg_infinity)
    (Graph.tasks g)

let energy_bounds g =
  let m = Graph.num_points g in
  let total j =
    Kahan.sum_list (List.map (fun t -> Task.energy t j) (Graph.tasks g))
  in
  (total (m - 1), total 0)

let energy_vector g =
  let keyed =
    List.map (fun t -> (Task.average_energy t, t.Task.id)) (Graph.tasks g)
  in
  List.map snd (List.sort compare keyed)
