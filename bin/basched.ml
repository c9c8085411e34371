(* basched: battery-aware scheduling of a task-graph file.

   Usage: basched FILE --deadline D [--algo iterative|dp-energy|chowdhury|
          annealing|random] [--beta B] [--seed N] [--pool N] [--iterations]
          [--stats] [--trace OUT.json] [--events OUT.jsonl]
          [--metrics OUT.prom] [--ledger DIR] [--dot OUT]
          basched serve [FIXTURE] [--pool N] [--queue N] [--soak N]
          basched report EVENTS.jsonl
          basched runs [list|show ID|diff A B] [--ledger DIR]
          basched profile A B [--ledger DIR] [--axis time|evals]
          basched watch [FILE | --last] [--replay] [--interval MS]

   The telemetry flags and their BATSCHED_* environment equivalents
   are described in lib/obs/run.mli. *)

open Cmdliner
open Batsched_taskgraph
open Batsched_sched
open Batsched_baselines
module Obs = Batsched_obs

let report ?(chart = false) g (sol : Solution.t) =
  Format.printf "schedule: %a@." (Schedule.pp g) sol.Solution.schedule;
  Printf.printf "finish:   %.2f min\n" sol.Solution.finish;
  Printf.printf "sigma:    %.1f mA*min\n" sol.Solution.sigma;
  if chart then begin
    print_newline ();
    print_string (Render.gantt g sol.Solution.schedule);
    print_newline ();
    print_string (Render.profile_chart (Schedule.to_profile g sol.Solution.schedule))
  end

let trace_iterations g (result : Batsched.Iterate.result) =
  List.iter
    (fun (it : Batsched.Iterate.iteration) ->
      Printf.printf "iteration %d: min sigma %.1f\n" it.index it.min_sigma;
      List.iter
        (fun (w : Batsched.Window.window_result) ->
          Printf.printf "  window %d:%d  sigma %.1f  Delta %.2f\n"
            (w.window_start + 1) (Graph.num_points g) w.sigma w.finish)
        it.windows.Batsched.Window.per_window)
    result.iterations

(* Auto-detect the on-disk format: TGFF-dialect files start their first
   significant line with '@'; otherwise the native textio format. *)
let load_graph path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let is_tgff =
    String.split_on_char '\n' text
    |> List.exists (fun l ->
           let l = String.trim l in
           l <> "" && l.[0] <> '#' && l.[0] = '@')
  in
  if is_tgff then
    let doc = Tgff.of_string text in
    (doc.Tgff.graph, doc.Tgff.deadline)
  else (Textio.of_string text, None)

(* Terminal telemetry: histogram digests (so the dashboard can show a
   latency block without parsing the exposition) and the run_done
   marker that tells [basched watch] the stream is complete.  Digests
   go first — a live watcher stops at run_done. *)
let emit_terminal_records events (sol : Solution.t) =
  if Obs.Events.is_active events then begin
    if Obs.Histogram.enabled () then
      List.iter
        (fun (name, h) ->
          if Obs.Histogram.count h > 0 then
            Obs.Events.emit events "hist"
              [ ("name", Obs.Events.S name);
                ("count", Obs.Events.I (Obs.Histogram.count h));
                ("p50", Obs.Events.F (Obs.Histogram.quantile h 50.0));
                ("p99", Obs.Events.F (Obs.Histogram.quantile h 99.0));
                ("max", Obs.Events.F (Obs.Histogram.max_value h)) ])
        (Obs.Histogram.snapshot ());
    Obs.Events.emit events "run_done"
      [ ("sigma", Obs.Events.F sol.Solution.sigma);
        ("finish", Obs.Events.F sol.Solution.finish) ]
  end

let run_file path deadline algo beta seed pool_n iterations chart polish
    verbose opts events_out dot_out =
  let run = Obs.Run.start opts in
  if verbose then Obs.Log.set_level Obs.Log.Debug;
  let obs = Obs.Run.sink run in
  let events_out =
    match events_out with
    | Some _ -> events_out
    | None -> Obs.Run.env "BATSCHED_EVENTS"
  in
  match
    (try Ok (load_graph path) with
    | Textio.Parse_error { line; message }
    | Tgff.Parse_error { line; message } ->
        Error (Printf.sprintf "%s:%d: %s" path line message)
    | Sys_error msg -> Error msg)
  with
  | Error msg -> Error msg
  | Ok (g, embedded_deadline) -> (
      (match dot_out with
      | Some out ->
          let oc = open_out out in
          output_string oc (Textio.to_dot g);
          close_out oc
      | None -> ());
      let model = Batsched_battery.Rakhmatov.model ~beta () in
      let rng = Batsched_numeric.Rng.create seed in
      Printf.printf "graph %s: %d tasks, %d design points, %d edges\n%!"
        (Graph.label g) (Graph.num_tasks g) (Graph.num_points g)
        (Graph.num_edges g);
      match
        match (deadline, embedded_deadline) with
        | Some d, _ -> Ok d
        | None, Some d ->
            Printf.printf "deadline %.2f min (from the file)\n" d;
            Ok d
        | None, None ->
            Error "no deadline: pass --deadline (the file embeds none)"
      with
      | Error msg -> Error msg
      | Ok deadline -> (
      (* with a ledger but no --events, a memory stream still captures
         the convergence curve for the manifest *)
      let events =
        match events_out with
        | Some out -> Obs.Events.create out
        | None ->
            if Obs.Run.recording run then Obs.Events.create_memory ()
            else Obs.Events.noop
      in
      (* closed on every path so the records reach disk *)
      Fun.protect ~finally:(fun () -> Obs.Events.close events)
      @@ fun () ->
      try
        let pool =
          if pool_n > 1 then Batsched_numeric.Pool.create pool_n
          else Batsched_numeric.Pool.sequential
        in
        let sol =
          match algo with
          | "iterative" | "iterative-ms" ->
              let cfg =
                Batsched.Config.make ~model ~obs ~events ~pool ~deadline ()
              in
              let result =
                if algo = "iterative-ms" then
                  Batsched.Iterate.run_multistart ~rng ~starts:8 cfg g
                else Batsched.Iterate.run cfg g
              in
              if iterations then trace_iterations g result;
              let result =
                if polish then Batsched.Polish.polish cfg g result else result
              in
              Solution.of_schedule ~model g result.Batsched.Iterate.schedule
          | "branch-bound" ->
              let outcome = Branch_bound.run ~model g ~deadline in
              if not outcome.Branch_bound.optimal then
                Printf.printf "(node budget hit: result may be suboptimal)\n";
              outcome.Branch_bound.solution
          | "dp-energy" -> Dp_energy.run ~model g ~deadline
          | "chowdhury" -> Chowdhury.run ~model g ~deadline
          | "annealing" -> Annealing.run ~events ~rng ~model g ~deadline
          | "random" -> Random_search.run ~events ~rng ~model g ~deadline
          | a -> failwith ("unknown algorithm: " ^ a)
        in
        emit_terminal_records events sol;
        report ~chart g sol;
        Obs.Run.finish run ~events ?events_path:events_out ~tool:"basched"
          ~label:algo ~instance:path ~model:"rakhmatov" ~seed
          ~pool_size:pool_n ~sigma:sol.Solution.sigma
          ~makespan:sol.Solution.finish
          ~knobs:
            [ ("algo", algo);
              ("beta", Printf.sprintf "%g" beta);
              ("deadline", Printf.sprintf "%g" deadline);
              ("polish", string_of_bool polish) ];
        Ok ()
      with
      | Batsched.Config.Deadline_unmeetable | Dp_energy.Infeasible
      | Chowdhury.Infeasible | Annealing.No_feasible_state
      | Branch_bound.Infeasible | Random_search.No_feasible_sample ->
          Error
            (Printf.sprintf
               "deadline %.2f min cannot be met (all-fastest serial time %.2f)"
               deadline (fst (Analysis.serial_time_bounds g)))
      | Failure msg -> Error msg))

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Task-graph file (see lib/taskgraph/textio.mli for the format).")

let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "d"; "deadline" ] ~docv:"MIN"
           ~doc:"Deadline in minutes (defaults to a TGFF HARD_DEADLINE).")

let algo_arg =
  Arg.(value & opt string "iterative"
       & info [ "a"; "algo" ] ~docv:"ALGO"
           ~doc:"One of iterative, iterative-ms, dp-energy, chowdhury, \
                 annealing, branch-bound, random.")

let beta_arg =
  Arg.(value & opt float Batsched_battery.Rakhmatov.default_beta
       & info [ "beta" ] ~docv:"B" ~doc:"Battery diffusion parameter.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let pool_arg =
  Arg.(value & opt int 1
       & info [ "pool" ] ~docv:"N"
           ~doc:"Worker domains for the multistart fan-out (results are \
                 bit-identical across pool sizes).")

let iterations_arg =
  Arg.(value & flag
       & info [ "iterations" ] ~doc:"Print per-iteration details.")

let events_arg =
  Arg.(value & opt (some string) None
       & info [ "events" ] ~docv:"FILE"
           ~doc:"Write a JSONL convergence-event stream (one record per \
                 anneal level / iteration / trial; see EXPERIMENTS.md for \
                 the schema).  Render with basched report, or tail live \
                 with basched watch.")

let chart_arg =
  Arg.(value & flag
       & info [ "chart" ] ~doc:"Draw an ASCII Gantt strip and current chart.")

let polish_arg =
  Arg.(value & flag
       & info [ "polish" ]
           ~doc:"Apply adjacent-swap local search after the iterative run.")

let verbose_arg =
  Arg.(value & flag
       & info [ "v"; "verbose" ] ~doc:"Log per-iteration progress (debug).")

let dot_arg =
  Arg.(value & opt (some string) None
       & info [ "dot" ] ~docv:"OUT" ~doc:"Also write a Graphviz rendering.")

(* ledger-reading subcommands share this flag; default to the env/home
   ledger so `basched runs` works right after an instrumented run *)
let ledger_dir_arg =
  Arg.(value & opt string (Obs.Ledger.default_dir ())
       & info [ "ledger" ] ~docv:"DIR"
           ~doc:"Ledger directory (default: \\$BATSCHED_LEDGER, else \
                 ~/.basched/runs).")

(* --- basched report: render an events stream as a summary table --- *)

module J = Obs.Json

let num_or_nan name r = Option.value ~default:Float.nan (J.num_field name r)

let int_or_zero name r =
  match J.num_field name r with Some f -> int_of_float f | None -> 0

let record_kind r = Option.value ~default:"?" (J.str_field "kind" r)

let t_ms r = num_or_nan "t_ns" r /. 1e6

let print_section records kind header line =
  match List.filter (fun r -> record_kind r = kind) records with
  | [] -> ()
  | rows ->
      print_newline ();
      print_string header;
      List.iter line rows

let report_events path =
  match
    (try Ok (Obs.Tail.read_file path) with Sys_error msg -> Error msg)
  with
  | Error msg -> Error msg
  | Ok (records, skipped) ->
      (* a run killed mid-write leaves one torn trailing line; that is
         data loss worth a warning, not a parse failure *)
      if skipped > 0 then
        Printf.eprintf
          "basched: [warn] %s: skipped %d unparseable line(s) (torn tail?)\n"
          path skipped;
      Printf.printf "%d event records from %s\n" (List.length records) path;
      let kinds =
        List.fold_left
          (fun acc r ->
            let k = record_kind r in
            if List.mem_assoc k acc then
              List.map
                (fun (k', n) -> if k' = k then (k', n + 1) else (k', n))
                acc
            else acc @ [ (k, 1) ])
          [] records
      in
      List.iter (fun (k, n) -> Printf.printf "  %-16s %6d\n" k n) kinds;
      print_section records "anneal_level"
        (Printf.sprintf "%8s %6s %12s %8s %8s %14s %14s\n" "t_ms" "level"
           "temp" "evals" "accept" "cur_energy" "best_sigma")
        (fun r ->
          Printf.printf "%8.2f %6d %12.2f %8d %8.3f %14.2f %14.2f\n" (t_ms r)
            (int_or_zero "level" r) (num_or_nan "temp" r)
            (int_or_zero "evals" r)
            (num_or_nan "accept_rate" r)
            (num_or_nan "cur_energy" r)
            (num_or_nan "best_sigma" r));
      print_section records "iteration"
        (Printf.sprintf "%8s %6s %14s %14s %14s\n" "t_ms" "iter" "window_best"
           "weighted" "min_sigma")
        (fun r ->
          Printf.printf "%8.2f %6d %14.2f %14.2f %14.2f\n" (t_ms r)
            (int_or_zero "index" r)
            (num_or_nan "window_best" r)
            (num_or_nan "weighted_sigma" r)
            (num_or_nan "min_sigma" r));
      print_section records "trial"
        (Printf.sprintf "%8s %6s %14s %10s %6s\n" "t_ms" "trial" "sigma"
           "finish" "iters")
        (fun r ->
          Printf.printf "%8.2f %6d %14.2f %10.2f %6d\n" (t_ms r)
            (int_or_zero "trial" r) (num_or_nan "sigma" r)
            (num_or_nan "finish" r)
            (int_or_zero "iterations" r));
      print_section records "sample"
        (Printf.sprintf "%8s %8s %14s\n" "t_ms" "sample" "best_sigma")
        (fun r ->
          Printf.printf "%8.2f %8d %14.2f\n" (t_ms r)
            (int_or_zero "sample" r)
            (num_or_nan "best_sigma" r));
      print_section records "polish_round"
        (Printf.sprintf "%8s %6s %14s %9s\n" "t_ms" "round" "cost" "improved")
        (fun r ->
          Printf.printf "%8.2f %6d %14.2f %9b\n" (t_ms r)
            (int_or_zero "round" r) (num_or_nan "cost" r)
            (match J.bool_field "improved" r with Some b -> b | None -> false));
      (* the anytime headline: the best sigma at the end of the stream *)
      let final_best =
        List.fold_left
          (fun acc r ->
            match
              (J.num_field "best_sigma" r, J.num_field "min_sigma" r)
            with
            | Some s, _ | None, Some s -> Some s
            | None, None -> acc)
          None records
      in
      (match final_best with
      | Some s -> Printf.printf "\nfinal best sigma: %.2f\n" s
      | None -> ());
      Ok ()

(* --- basched runs: list / show / diff ledger manifests --- *)

let opt_num_str = function
  | Some f -> Printf.sprintf "%.2f" f
  | None -> "-"

let runs_list dir =
  let entries, skipped = Obs.Ledger.load dir in
  if skipped > 0 then
    Printf.eprintf "basched: [warn] %s: skipped %d unreadable manifest(s)\n"
      dir skipped;
  if entries = [] then Printf.printf "no runs in %s\n" dir
  else begin
    Printf.printf "%-32s %-8s %-14s %12s %9s %8s\n" "id" "tool" "label"
      "sigma" "wall_s" "git";
    List.iter
      (fun (e : Obs.Ledger.entry) ->
        Printf.printf "%-32s %-8s %-14s %12s %9.3f %8s\n" e.Obs.Ledger.id
          e.Obs.Ledger.e_tool e.Obs.Ledger.e_label
          (opt_num_str e.Obs.Ledger.e_sigma)
          e.Obs.Ledger.e_wall_s e.Obs.Ledger.git_rev)
      entries
  end;
  Ok ()

let runs_show dir id =
  match Obs.Ledger.find dir id with
  | Error msg -> Error msg
  | Ok e ->
      let open Obs.Ledger in
      Printf.printf "id:            %s\n" e.id;
      Printf.printf "tool:          %s %s\n" e.e_tool e.e_label;
      Printf.printf "instance:      %s%s\n" e.e_instance
        (if e.e_instance_hash = "" then ""
         else Printf.sprintf " (%s)" e.e_instance_hash);
      Printf.printf "model:         %s\n" e.e_model;
      Printf.printf "seed:          %d   pool: %d   git: %s\n" e.e_seed
        e.e_pool_size e.git_rev;
      Printf.printf "wall:          %.3f s\n" e.e_wall_s;
      Printf.printf "sigma:         %s   finish: %s\n"
        (opt_num_str e.e_sigma) (opt_num_str e.e_finish);
      (match e.e_events_path with
      | Some p -> Printf.printf "events:        %s\n" p
      | None -> ());
      if e.e_knobs <> [] then begin
        Printf.printf "knobs:\n";
        List.iter (fun (k, v) -> Printf.printf "  %-24s %s\n" k v) e.e_knobs
      end;
      (match e.e_curve with
      | [] -> ()
      | curve ->
          let t, ev, q = List.nth curve (List.length curve - 1) in
          Printf.printf "curve:         %d improvement(s), last %.2f at \
                         %.3fs / %.0f evals\n"
            (List.length curve) q t ev);
      let nonzero =
        List.filter (fun (_, v) -> v <> 0.0) e.counters
      in
      if nonzero <> [] then begin
        Printf.printf "counters:\n";
        List.iter
          (fun (k, v) -> Printf.printf "  %-24s %12.0f\n" k v)
          nonzero
      end;
      Ok ()

let runs_diff dir a b =
  match (Obs.Ledger.find dir a, Obs.Ledger.find dir b) with
  | Error msg, _ | _, Error msg -> Error msg
  | Ok ea, Ok eb ->
      let open Obs.Ledger in
      Printf.printf "diff %s  vs  %s\n" ea.id eb.id;
      let field name fa fb = if fa <> fb then
          Printf.printf "  %-14s %s -> %s\n" name fa fb
      in
      field "tool" ea.e_tool eb.e_tool;
      field "label" ea.e_label eb.e_label;
      field "instance" ea.e_instance eb.e_instance;
      field "model" ea.e_model eb.e_model;
      field "git" ea.git_rev eb.git_rev;
      field "seed" (string_of_int ea.e_seed) (string_of_int eb.e_seed);
      field "pool" (string_of_int ea.e_pool_size)
        (string_of_int eb.e_pool_size);
      field "sigma" (opt_num_str ea.e_sigma) (opt_num_str eb.e_sigma);
      field "wall_s" (Printf.sprintf "%.3f" ea.e_wall_s)
        (Printf.sprintf "%.3f" eb.e_wall_s);
      let keys l = List.map fst l in
      List.iter
        (fun k ->
          let va = List.assoc_opt k ea.e_knobs
          and vb = List.assoc_opt k eb.e_knobs in
          if va <> vb then
            Printf.printf "  knob %-14s %s -> %s\n" k
              (Option.value ~default:"-" va) (Option.value ~default:"-" vb))
        (List.sort_uniq compare (keys ea.e_knobs @ keys eb.e_knobs));
      List.iter
        (fun k ->
          let va = Option.value ~default:0.0 (List.assoc_opt k ea.counters)
          and vb = Option.value ~default:0.0 (List.assoc_opt k eb.counters) in
          if va <> vb then
            Printf.printf "  counter %-19s %12.0f -> %12.0f\n" k va vb)
        (List.sort_uniq compare (keys ea.counters @ keys eb.counters));
      Ok ()

let runs_main dir action id_a id_b =
  match (action, id_a, id_b) with
  | "list", None, None -> runs_list dir
  | "show", Some id, None -> runs_show dir id
  | "diff", Some a, Some b -> runs_diff dir a b
  | "show", None, _ -> Error "runs show: missing run id"
  | "diff", _, _ -> Error "runs diff: need two run ids"
  | a, _, _ -> Error (Printf.sprintf "runs: unknown action %S" a)

(* --- basched profile: anytime comparison of two run cohorts --- *)

(* A cohort name is a label (all runs whose label matches) or, failing
   that, a run-id prefix resolving to a single run. *)
let cohort dir name =
  let entries, _ = Obs.Ledger.load dir in
  match
    List.filter (fun e -> e.Obs.Ledger.e_label = name) entries
  with
  | _ :: _ as es -> Ok es
  | [] -> (
      match Obs.Ledger.find dir name with
      | Ok e -> Ok [ e ]
      | Error msg -> Error msg)

let profile_main dir a b axis =
  match (cohort dir a, cohort dir b) with
  | Error msg, _ | _, Error msg -> Error msg
  | Ok ea, Ok eb ->
      print_string
        (Obs.Profile.compare_to_string ~axis ~name_a:a ~name_b:b ea eb);
      Ok ()

(* --- basched watch: tail an events file into a live dashboard --- *)

let watch_path dir last = function
  | Some file -> Ok file
  | None ->
      if not last then Error "watch: pass an events FILE or --last"
      else
        let entries, _ = Obs.Ledger.load dir in
        let with_events =
          List.filter (fun e -> e.Obs.Ledger.e_events_path <> None) entries
        in
        (match List.rev with_events with
        | e :: _ -> Ok (Option.get e.Obs.Ledger.e_events_path)
        | [] -> Error ("watch --last: no run with an events file in " ^ dir))

(* Replay: one gulp through the same fold the live path uses, then the
   same summary — the equality the watch tests pin down. *)
let watch_replay path =
  match
    (try Ok (Obs.Tail.read_file path) with Sys_error msg -> Error msg)
  with
  | Error msg -> Error msg
  | Ok (records, skipped) ->
      let st =
        Obs.Dash.note_skipped (Obs.Dash.feed_all Obs.Dash.empty records)
          skipped
      in
      if Unix.isatty Unix.stdout then print_string (Obs.Dash.render st);
      print_string (Obs.Dash.summary st);
      Ok ()

(* Live: poll the file for appended bytes, feed them through the torn-
   tolerant tailer, repaint on change.  Ends at the run_done record, or
   after ~60s without growth (a writer that died without a terminal
   record).  Frames only go to a tty; the summary always prints, so
   watching from a pipe (or cram) yields exactly the replay output. *)
let watch_live path interval_ms =
  match
    (try Ok (Unix.openfile path [ Unix.O_RDONLY ] 0)
     with Unix.Unix_error (e, _, _) ->
       Error (path ^ ": " ^ Unix.error_message e))
  with
  | Error msg -> Error msg
  | Ok fd ->
      let tty = Unix.isatty Unix.stdout in
      let interval = Float.max 0.01 (float_of_int interval_ms /. 1000.0) in
      let max_idle = int_of_float (Float.max 1.0 (60.0 /. interval)) in
      let tailer = Obs.Tail.create () in
      let buf = Bytes.create 65536 in
      let st = ref Obs.Dash.empty in
      let noted = ref 0 in
      let idle = ref 0 in
      Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
      @@ fun () ->
      let feed n =
        let js = Obs.Tail.feed tailer (Bytes.sub_string buf 0 n) in
        st := Obs.Dash.feed_all !st js;
        let bad = Obs.Tail.bad tailer in
        if bad > !noted then begin
          st := Obs.Dash.note_skipped !st (bad - !noted);
          noted := bad
        end;
        js <> []
      in
      let rec loop () =
        let n = try Unix.read fd buf 0 (Bytes.length buf) with _ -> 0 in
        if n > 0 then begin
          idle := 0;
          let changed = feed n in
          if changed && tty then print_string (Obs.Dash.render !st);
          if Obs.Dash.finished !st then ()
          else loop ()
        end
        else if Obs.Dash.finished !st || !idle > max_idle then ()
        else begin
          incr idle;
          Unix.sleepf interval;
          loop ()
        end
      in
      loop ();
      (* a file that ends without a newline still contributes its last
         line if it parses *)
      st := Obs.Dash.feed_all !st (Obs.Tail.finish tailer);
      let bad = Obs.Tail.bad tailer in
      if bad > !noted then st := Obs.Dash.note_skipped !st (bad - !noted);
      if tty then print_string (Obs.Dash.render !st);
      print_string (Obs.Dash.summary !st);
      Ok ()

let watch_main dir file last replay interval_ms =
  match watch_path dir last file with
  | Error msg -> Error msg
  | Ok path ->
      if replay then watch_replay path else watch_live path interval_ms

(* --- basched serve: batch scheduling daemon --- *)

module Serve = Batsched_serve

(* Per-slot executor counters: slot 0 is the caller-side domains, 1..
   the persistent workers.  Busy fraction is against daemon wall time,
   so on an idle daemon every slot reads near zero. *)
let print_occupancy oc pool ~wall_s =
  let st = Batsched_numeric.Pool.worker_stats pool in
  if Array.length st > 0 then begin
    Printf.fprintf oc "\nworker occupancy (wall %.2f s):\n" wall_s;
    Printf.fprintf oc "  slot   items  chunks  steals   jobs   busy_s  busy%%\n";
    Array.iteri
      (fun i (s : Batsched_numeric.Pool.worker_stat) ->
        let pct = if wall_s > 0.0 then 100.0 *. s.busy_s /. wall_s else 0.0 in
        Printf.fprintf oc "  %4d  %6d  %6d  %6d  %5d  %8.3f  %5.1f\n" i
          s.items s.chunks s.steals s.jobs s.busy_s pct)
      st
  end

let print_serve_quantiles oc d =
  let q, l = Serve.Daemon.histograms d in
  let line name h =
    if Obs.Histogram.count h > 0 then
      Printf.fprintf oc "  %-12s p50 %8.2f ms   p99 %8.2f ms   (n=%d)\n" name
        (Obs.Histogram.quantile h 50.0)
        (Obs.Histogram.quantile h 99.0)
        (Obs.Histogram.count h)
  in
  Printf.fprintf oc "\nrequest latency:\n";
  line "queue delay" q;
  line "end-to-end" l

let print_soak_summary pool (r : Serve.Soak.result) =
  let c = r.counts in
  Printf.printf "soak: %d requests in %.2f s  (%.0f req/s, pool %d)\n" r.n
    r.wall_s r.req_per_s
    (Batsched_numeric.Pool.size pool);
  Printf.printf "  completed %d  cancelled %d  errors %d  rejected %d\n"
    c.Serve.Daemon.completed c.Serve.Daemon.cancelled c.Serve.Daemon.errors
    c.Serve.Daemon.rejected;
  Printf.printf "  queue delay  p50 %.2f ms   p99 %.2f ms\n" r.queue_p50_ms
    r.queue_p99_ms;
  Printf.printf "  latency      p50 %.2f ms   p99 %.2f ms\n" r.latency_p50_ms
    r.latency_p99_ms

let serve_main fixture pool_n capacity terminal_only stats metrics_out gen
    soak json_out seed =
  if gen > 0 then begin
    (* fixture generator: print and exit, no pool, no daemon *)
    List.iter print_endline (Serve.Soak.fixture_lines ~n:gen ~seed);
    Ok ()
  end
  else if capacity < 1 then Error "--queue needs a positive capacity"
  else begin
    if stats || metrics_out <> None then Obs.Histogram.enable ();
    let pool = Batsched_numeric.Pool.create (Stdlib.max 1 pool_n) in
    Fun.protect ~finally:(fun () -> Batsched_numeric.Pool.shutdown pool)
    @@ fun () ->
    let wall0 = Unix.gettimeofday () in
    (* stdout carries the response stream, so tables and notices go to
       stderr — `basched serve f > out.jsonl` stays pure JSONL *)
    let finish_stats () =
      if stats then
        print_occupancy stderr pool ~wall_s:(Unix.gettimeofday () -. wall0);
      match metrics_out with
      | Some out ->
          Obs.Openmetrics.write_file out;
          Printf.eprintf "wrote OpenMetrics exposition to %s\n" out
      | None -> ()
    in
    match soak with
    | Some n ->
        if n < 1 then Error "--soak needs a positive request count"
        else begin
          let r = Serve.Soak.run ~seed ~pool ~n () in
          print_soak_summary pool r;
          (match json_out with
          | Some out ->
              let oc = open_out out in
              output_string oc (Serve.Soak.result_to_json r);
              output_char oc '\n';
              close_out oc;
              Printf.printf "wrote soak summary to %s\n" out
          | None -> ());
          finish_stats ();
          Ok ()
        end
    | None -> (
        match
          (match fixture with
          | None -> Ok stdin
          | Some path -> (
              try Ok (open_in path) with Sys_error msg -> Error msg))
        with
        | Error msg -> Error msg
        | Ok ic ->
            let events = Obs.Events.create_channel stdout in
            let d =
              Serve.Daemon.create ~capacity ~stream_search:(not terminal_only)
                ~pool ~events ()
            in
            let c = Serve.Daemon.run_channel d ic in
            if fixture <> None then close_in ic;
            Obs.Events.close events;
            if stats then print_serve_quantiles stderr d;
            finish_stats ();
            (* parse errors and failed requests were answered on the
               stream; the exit code reflects whether the daemon itself
               ran to completion *)
            ignore c.Serve.Daemon.errors;
            Ok ())
  end

(* --- command wiring --- *)

let ret_of = function Ok () -> `Ok () | Error msg -> `Error (false, msg)

let run_term =
  Term.(
    const
      (fun file deadline algo beta seed pool iterations chart polish verbose
           opts events dot ->
        ret_of
          (run_file file deadline algo beta seed pool iterations chart polish
             verbose opts events dot))
    $ file_arg $ deadline_arg $ algo_arg $ beta_arg $ seed_arg $ pool_arg
    $ iterations_arg $ chart_arg $ polish_arg $ verbose_arg $ Obs.Run.term
    $ events_arg $ dot_arg)

let report_cmd =
  let events_file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"EVENTS"
             ~doc:"JSONL convergence-event stream written by --events.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Summarize a convergence event stream as per-phase tables")
    Term.(
      ret (const (fun path -> ret_of (report_events path)) $ events_file_arg))

let runs_cmd =
  let action_arg =
    Arg.(value & pos 0 string "list"
         & info [] ~docv:"ACTION" ~doc:"list, show ID, or diff A B.")
  in
  let id_a_arg =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"ID")
  in
  let id_b_arg =
    Arg.(value & pos 2 (some string) None & info [] ~docv:"ID2")
  in
  Cmd.v
    (Cmd.info "runs" ~doc:"List, inspect and diff ledger run manifests")
    Term.(
      ret
        (const (fun dir action a b -> ret_of (runs_main dir action a b))
        $ ledger_dir_arg $ action_arg $ id_a_arg $ id_b_arg))

let profile_cmd =
  let a_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"A" ~doc:"First cohort: a run label or id prefix.")
  in
  let b_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"B" ~doc:"Second cohort: a run label or id prefix.")
  in
  let axis_arg =
    Arg.(value & opt (enum [ ("time", `Time); ("evals", `Evals) ]) `Evals
         & info [ "axis" ] ~docv:"AXIS"
             ~doc:"Budget axis: evals (pool-size-invariant, default) or \
                   time (wall seconds).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Anytime convergence comparison of two ledger cohorts \
             (quantile bands, ERT table, bootstrap dominance verdict)")
    Term.(
      ret
        (const (fun dir a b axis -> ret_of (profile_main dir a b axis))
        $ ledger_dir_arg $ a_arg $ b_arg $ axis_arg))

let watch_cmd =
  let file_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"EVENTS" ~doc:"Events file to tail.")
  in
  let last_arg =
    Arg.(value & flag
         & info [ "last" ]
             ~doc:"Tail the events file of the most recent ledger run.")
  in
  let replay_arg =
    Arg.(value & flag
         & info [ "replay" ]
             ~doc:"Read the whole file once instead of tailing.")
  in
  let interval_arg =
    Arg.(value & opt int 200
         & info [ "interval" ] ~docv:"MS" ~doc:"Polling interval.")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Live terminal dashboard over a convergence event stream")
    Term.(
      ret
        (const (fun dir file last replay interval ->
             ret_of (watch_main dir file last replay interval))
        $ ledger_dir_arg $ file_arg $ last_arg $ replay_arg $ interval_arg))

let serve_cmd =
  let fixture_arg =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"FIXTURE"
             ~doc:"Request file, one JSON object per line (see \
                   EXPERIMENTS.md for the wire format); reads stdin when \
                   omitted.")
  in
  let serve_pool_arg =
    Arg.(value & opt int 4
         & info [ "pool" ] ~docv:"N"
             ~doc:"Worker domains the daemon batches requests onto.  With \
                   fewer than two workers, requests run inline on the \
                   reader thread and in-flight cancellation loses its \
                   promptness.")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission capacity: at most N requests queued or \
                   running; overflow is answered with an overloaded \
                   record instead of queueing without bound.")
  in
  let terminal_only_arg =
    Arg.(value & flag
         & info [ "terminal-only" ]
             ~doc:"Answer with terminal records only (result, cancelled, \
                   error); suppress each request's streamed search \
                   convergence records.")
  in
  let soak_arg =
    Arg.(value & opt (some int) None
         & info [ "soak" ] ~docv:"N"
             ~doc:"Instead of serving, run N generated mixed requests \
                   through an in-process daemon and print throughput and \
                   latency quantiles.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"With --soak: also write the summary as one JSON \
                   object (the CI artifact).")
  in
  (* serve's own --stats/--metrics: stdout is the response stream, so
     its tables and notices go to stderr *)
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print worker occupancy and request-latency quantiles on \
                   stderr.")
  in
  let metrics_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Write an OpenMetrics (Prometheus text format) exposition \
                   of all counters, histograms and GC gauges after the run.")
  in
  let gen_arg =
    Arg.(value & opt int 0
         & info [ "gen" ] ~docv:"N"
             ~doc:"Print an N-request smoke fixture (mixed load plus an \
                   in-flight cancellation) to stdout and exit.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Batch scheduling daemon: read newline-framed JSON requests, \
             run each search on a shared work-stealing pool, stream \
             responses as JSONL")
    Term.(
      ret
        (const (fun fixture pool capacity terminal_only stats metrics gen
                    soak json seed ->
             ret_of
               (serve_main fixture pool capacity terminal_only stats metrics
                  gen soak json seed))
        $ fixture_arg $ serve_pool_arg $ queue_arg $ terminal_only_arg
        $ stats_arg $ metrics_arg $ gen_arg $ soak_arg $ json_arg $ seed_arg))

let run_cmd =
  let doc =
    "battery-aware task sequencing and design-point assignment (also: \
     basched serve for a batch daemon, basched report | runs | profile | \
     watch for telemetry)"
  in
  Cmd.v (Cmd.info "basched" ~doc) (Term.ret run_term)

(* Cmdliner groups reserve the first positional for the command name,
   which would break the historical `basched FILE --deadline D` CLI —
   so the subcommands are dispatched by hand. *)
let subcommands =
  [ ("serve", serve_cmd); ("report", report_cmd); ("runs", runs_cmd);
    ("profile", profile_cmd); ("watch", watch_cmd) ]

let () =
  match
    if Array.length Sys.argv > 1 then
      List.assoc_opt Sys.argv.(1) subcommands
    else None
  with
  | Some cmd ->
      let argv =
        Array.append
          [| Sys.argv.(0) ^ " " ^ Sys.argv.(1) |]
          (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
      in
      exit (Cmd.eval ~argv cmd)
  | None -> exit (Cmd.eval run_cmd)
