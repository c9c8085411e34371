open Batsched_taskgraph
open Batsched_sched

type window_result = {
  window_start : int;
  assignment : Assignment.t;
  sigma : float;
  finish : float;
}

type t = {
  per_window : window_result list;
  best : window_result;
}

let initial_window_start (cfg : Config.t) g =
  let d = cfg.Config.deadline in
  let feasible ws = Choose.column_time g ws <= d +. 1e-9 in
  if not (feasible 0) then raise Config.Deadline_unmeetable;
  let m = Graph.num_points g in
  (* The paper starts the scan at column m-1 (1-based), i.e. it never
     evaluates the single-column all-lowest-power window. *)
  let rec search ws = if feasible ws then ws else search (ws - 1) in
  search (Stdlib.max 0 (m - 2))

let evaluate (cfg : Config.t) g ~sequence =
  let start =
    (* the ablation switch skips the paper's narrow-to-wide sweep and
       evaluates only the full matrix *)
    if cfg.Config.full_window_only then begin
      ignore (initial_window_start cfg g) (* still validates feasibility *);
      0
    end
    else initial_window_start cfg g
  in
  (* One validation per sweep: every window then reaches Choose and
     the cost through the entries that skip it. *)
  if not (Analysis.is_topological g sequence) then
    invalid_arg "Window.evaluate: invalid sequence";
  let seq = Array.of_list sequence in
  let run ws =
    Batsched_obs.Sink.with_span cfg.Config.obs "window" (fun () ->
        let probe = Batsched_numeric.Probe.local () in
        probe.Batsched_numeric.Probe.window_evals <-
          probe.Batsched_numeric.Probe.window_evals + 1;
        let assignment = Choose.unsafe_choose cfg g ~seq ~window_start:ws in
        let sched = Schedule.unsafe_make g ~sequence ~assignment in
        { window_start = ws;
          assignment;
          sigma = Schedule.battery_cost ~model:cfg.Config.model g sched;
          finish = Schedule.finish_time g sched })
  in
  (* Fan the independent window evaluations out over the config's
     domain pool; [Pool.map_list] keeps results in the sequential
     narrow-to-wide order, so [best] (and its tie-breaks) are
     bit-identical to the sequential sweep. *)
  let per_window =
    Batsched_numeric.Pool.map_list cfg.Config.pool run
      (List.init (start + 1) (fun k -> start - k))
  in
  let best =
    match per_window with
    | [] -> assert false (* start >= 0 always yields one window *)
    | first :: rest ->
        List.fold_left
          (fun acc r -> if r.sigma < acc.sigma then r else acc)
          first rest
  in
  { per_window; best }

let mask g ~window_start =
  List.init (Graph.num_points g) (fun j -> (j, j >= window_start))
