open Batsched_numeric
open Batsched_taskgraph

let sequence_dec_energy g =
  let weight v = Task.average_energy (Graph.task g v) in
  Analysis.list_schedule ~weight g

(* List-schedules by the Eq. 4/5 weights, [weigh current sum size] of
   v's own chosen current and the sum and size of its subgraph G_v,
   all computed before the first pick.  One DFS per root marks G_v in
   a reused stamp array; the marked currents are then summed in
   ascending id, the order [Analysis.descendants] lists them, with the
   same Neumaier arithmetic as [Kahan.sum_list] — so the sums are
   bit-identical to summing that list. *)
let by_subtree g a weigh =
  let n = Graph.num_tasks g in
  let current =
    Array.init n (fun v -> (Assignment.chosen_point g a v).Task.current)
  in
  let stamp = Array.make n (-1) in
  let rec visit root u =
    if stamp.(u) <> root then begin
      stamp.(u) <- root;
      visit_all root (Graph.succs g u)
    end
  and visit_all root = function
    | [] -> ()
    | u :: rest ->
        visit root u;
        visit_all root rest
  in
  let acc = Kahan.Acc.create () in
  let weights =
    Array.init n (fun v ->
        visit v v;
        Kahan.Acc.reset acc;
        let size = ref 0 in
        for u = 0 to n - 1 do
          if stamp.(u) = v then begin
            Kahan.Acc.add acc current.(u);
            incr size
          end
        done;
        weigh current.(v) (Kahan.Acc.sum acc) !size)
  in
  Analysis.list_schedule ~weight:(Array.get weights) g

let weighted_sequence g a = by_subtree g a (fun _ sum _ -> sum)

let greedy_mean_current g a =
  by_subtree g a (fun current sum size ->
      Float.max current (sum /. float_of_int size))
