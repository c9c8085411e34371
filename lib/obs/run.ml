open Cmdliner

type opts = {
  stats : bool;
  trace : string option;
  metrics : string option;
  ledger : string option;
}

let term =
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print a work-counter table and per-phase timing report.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace-event JSON file of the run \
                   (chrome://tracing / Perfetto).")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Write an OpenMetrics (Prometheus text format) exposition \
                   of all counters, histograms and GC gauges after the run.")
  in
  let ledger =
    Arg.(value & opt (some string) None
         & info [ "ledger" ] ~docv:"DIR"
             ~doc:"Record a run manifest (provenance, outcome, counters \
                   and, for searches, a convergence curve) in this ledger \
                   directory.  Inspect with basched runs / basched profile.")
  in
  Term.(
    const (fun stats trace metrics ledger -> { stats; trace; metrics; ledger })
    $ stats $ trace $ metrics $ ledger)

let env name =
  match Sys.getenv_opt name with Some "" | None -> None | v -> v

let env_stats () =
  match Sys.getenv_opt "BATSCHED_STATS" with
  | Some ("1" | "true") -> true
  | _ -> false

type t = { opts : opts; sink : Sink.t; wall0 : float }

let start o =
  Log.init_from_env ();
  let or_env v name = match v with Some _ -> v | None -> env name in
  let opts =
    { o with
      stats = o.stats || env_stats ();
      metrics = or_env o.metrics "BATSCHED_METRICS";
      ledger = or_env o.ledger "BATSCHED_LEDGER" }
  in
  (* counters are always on; an active sink adds the phase span timers *)
  let sink =
    if opts.stats || opts.trace <> None then Sink.create () else Sink.noop
  in
  if opts.stats || opts.metrics <> None then Histogram.enable ();
  Batsched_numeric.Probe.reset ();
  { opts; sink; wall0 = Unix.gettimeofday () }

let sink t = t.sink

let recording t = t.opts.ledger <> None

let finish ?(events = Events.noop) ?events_path ?(instance = "")
    ?(model = "") ?(seed = 0) ?(pool_size = 1) ?sigma ?makespan ~tool ~label
    ~knobs t =
  let wall_s = Unix.gettimeofday () -. t.wall0 in
  if t.opts.stats then begin
    print_newline ();
    print_string (Report.to_string t.sink)
  end;
  Option.iter
    (fun out ->
      Trace.write t.sink out;
      Printf.printf
        "wrote trace to %s (load it in chrome://tracing or ui.perfetto.dev)\n"
        out)
    t.opts.trace;
  Option.iter
    (Printf.printf
       "wrote convergence events to %s (render with basched report)\n")
    events_path;
  Option.iter
    (fun out ->
      Openmetrics.write_file out;
      Printf.printf "wrote OpenMetrics exposition to %s\n" out)
    t.opts.metrics;
  Option.iter
    (fun dir ->
      let spec =
        { Ledger.tool;
          label;
          instance;
          instance_hash =
            (try Digest.to_hex (Digest.file instance) with Sys_error _ -> "");
          model;
          seed;
          pool_size;
          knobs;
          wall_s;
          sigma;
          finish = makespan;
          events_path;
          curve = Profile.curve_of_events (Events.snapshot events) }
      in
      match Ledger.record ~dir spec with
      | Ok id -> Printf.printf "ledger: recorded %s in %s\n" id dir
      | Error msg ->
          Printf.eprintf "%s: [warn] ledger write failed: %s\n%!" tool msg)
    t.opts.ledger;
  flush stdout
