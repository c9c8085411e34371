open Batsched_taskgraph

let[@inline] slack_ratio ~deadline ~time =
  if not (deadline > 0.0) then invalid_arg "Metrics.slack_ratio: deadline <= 0";
  (deadline -. time) /. deadline

let current_ratio g i =
  let imin, imax = Analysis.current_range g in
  if imax -. imin <= 0.0 then 0.0 else (i -. imin) /. (imax -. imin)

let energy_ratio g a =
  let emin, emax = Analysis.energy_bounds g in
  if emax -. emin <= 0.0 then 0.0
  else (Assignment.total_energy g a -. emin) /. (emax -. emin)

let current_increase_fraction g a sequence =
  match sequence with
  | [] -> invalid_arg "Metrics.current_increase_fraction: empty sequence"
  | [ _ ] -> 0.0
  | first :: rest ->
      let current v = (Assignment.chosen_point g a v).Task.current in
      let increases, _ =
        List.fold_left
          (fun (count, prev) v ->
            ((if current v > prev then count + 1 else count), current v))
          (0, current first) rest
      in
      float_of_int increases /. float_of_int (List.length sequence - 1)

let dpf_static g a ~free ~window_start =
  let m = Graph.num_points g in
  if window_start < 0 || window_start >= m then
    invalid_arg "Metrics.dpf_static: window_start out of range";
  let x = List.length free in
  if x = 0 || window_start = m - 1 then 0.0
  else begin
    let span = float_of_int (m - 1 - window_start) in
    let weight k =
      if k < window_start then
        invalid_arg "Metrics.dpf_static: free task assigned outside the window"
      else float_of_int (m - 1 - k) /. span
    in
    let contribution v = weight (Assignment.column a v) in
    Batsched_numeric.Kahan.sum_list (List.map contribution free)
    /. float_of_int x
  end

let suitability ~sr ~cr ~enr ~cif ~dpf = sr +. cr +. enr +. cif +. dpf
