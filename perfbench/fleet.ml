(* fleet-endurance: [Engine.run] over [Spec.default] on a 2-domain pool,
   back to back.  The battery models run through their decay-channel
   kernel ([Periodic.Batch]), not through [sigma]; this is the only
   workload where the Sampler and Survival layers and pool sharding do
   the work. *)

open Common
module Pool = Batsched_numeric.Pool
module Engine = Batsched_fleet.Engine
module Spec = Batsched_fleet.Spec
module Sampler = Batsched_fleet.Sampler
module Survival = Batsched_fleet.Survival
module Periodic = Batsched_battery.Periodic

let pool_size = 2

(* Devices per [Engine.run] call, and the number of distinct device
   populations a run cycles through (call k uses seed [run seed * 1000
   + k mod populations]).  A call takes tens of milliseconds, so a
   hiccup of the helper domain is a small part of it. *)
let devices = 16384
let populations = 8

(* [Survival.checksum] of (Spec.default, 16384 devices, seed 1) at the
   parent commit of the benchmark; checked at pool sizes 1 and 2. *)
let pinned_seed = 1
let pinned_checksum = "sv1-964d7f1daba9407b"

let spec = Spec.default

let run_engine pool seed =
  Survival.checksum (Engine.run ~pool ~spec ~devices ~seed ())

(* Engine.run's block loop, rebuilt from the public Sampler, Periodic
   and Survival entry points with a span around each call.  Blocks of
   256 devices (Engine's default) fold into a block accumulator that is
   merged into the run total, as Engine's spans are. *)
let block = 256

let replay tr seed =
  let labels = Array.of_list (List.map (fun w -> w.Spec.label) spec.Spec.models) in
  let horizon = spec.Spec.horizon in
  let base = Sampler.base ~seed in
  let total = Survival.create ~horizon ~models:labels in
  let cycles = ref 0 in
  let b = ref 0 in
  while !b < devices do
    let count = Stdlib.min block (devices - !b) in
    let acc = Survival.create ~horizon ~models:labels in
    let devs =
      Trace.span tr "sample" (fun () ->
          Array.init count (fun j -> Sampler.device spec ~base (!b + j)))
    in
    let results =
      Trace.span tr "kernel" (fun () ->
          Periodic.Batch.run ~max_cycles:horizon ~n:count
            ~device:(fun j -> devs.(j).Sampler.periodic)
            ())
    in
    Trace.span tr "observe" (fun () ->
        Array.iteri
          (fun j (r : Periodic.Batch.result) ->
            cycles := !cycles + Periodic.cycles r.Periodic.Batch.outcome;
            Survival.observe acc ~model_index:devs.(j).Sampler.model_index
              r.Periodic.Batch.outcome)
          results);
    Trace.span tr "merge" (fun () -> Survival.merge ~into:total acc);
    b := !b + count
  done;
  (Survival.checksum total, !cycles)

type pool_totals = { busy_s : float; steals : int }

let pool_totals pool =
  Array.fold_left
    (fun acc (s : Pool.worker_stat) ->
      { busy_s = acc.busy_s +. s.Pool.busy_s; steals = acc.steals + s.Pool.steals })
    { busy_s = 0.0; steals = 0 }
    (Pool.worker_stats pool)

let run ~seed ~seconds ~trace =
  let pool, setup_s =
    timed_setup
      ~setup:(fun () ->
        let pool = Pool.create pool_size in
        (* warm-up: spawns the helper domain *)
        ignore (Engine.run ~pool ~spec ~devices:1024 ~seed ());
        pool)
      ~discard:Pool.shutdown
  in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let seed_of k = (seed * 1000) + (k mod populations) in
  let lat = Samples.create () in
  let sums = Hashtbl.create populations in
  let tr = Trace.create () in
  let record_ms = ref 0.0 and replay_ms = ref 0.0 and minor = ref 0.0 in
  let pool_ms = ref 0.0 and replays = ref 0 in
  let failed = ref 0 in
  let p0 = pool_totals pool in
  let budget = seconds *. 1e9 in
  let k = ref 0 in
  let t_start = now_ns () in
  while now_ns () -. t_start < budget do
    let s = seed_of !k in
    Speed.maybe_sample ~pool ();
    let t0 = now_ns () in
    let c2 = run_engine pool s in
    let dt = ms_since t0 in
    Samples.add lat (dt *. Speed.factor ~pool ());
    Hashtbl.add sums s c2;
    if trace then begin
      pool_ms := !pool_ms +. dt;
      let w0 = Gc.minor_words () in
      let t1 = now_ns () in
      let c1 = run_engine Pool.sequential s in
      record_ms := !record_ms +. ms_since t1;
      minor := !minor +. (Gc.minor_words () -. w0);
      let t2 = now_ns () in
      let c, _ = replay tr s in
      replay_ms := !replay_ms +. ms_since t2;
      incr replays;
      require (c = c1 && c1 = c2) "fleet checksum"
    end;
    incr k
  done;
  let p1 = pool_totals pool in
  (* checks: every pool-2 checksum equals the pool-1 run of the same
     population, and the pinned population checks at both pool sizes *)
  let pool1 = Hashtbl.create populations in
  Hashtbl.iter
    (fun s c ->
      let c1 =
        match Hashtbl.find_opt pool1 s with
        | Some c1 -> c1
        | None ->
            let c1 = run_engine Pool.sequential s in
            Hashtbl.add pool1 s c1;
            c1
      in
      if c <> c1 then incr failed)
    sums;
  let pinned_ok p = run_engine p pinned_seed = pinned_checksum in
  if not (pinned_ok Pool.sequential) then incr failed;
  if not (pinned_ok pool) then incr failed;
  let calls = Samples.count lat in
  let attempted = calls + 2 in
  let lats = Samples.to_array lat in
  let detail =
    [ ("calls", float_of_int calls);
      ("devices_per_call", float_of_int devices);
      ("fail_share", float_of_int !failed /. float_of_int attempted) ]
  in
  let metrics, detail =
    if not trace then
      let metrics, more =
        end_to_end ~setup_s
          ~ops_per_s:(float_of_int devices /. (median lats *. 1e-3))
          ~lats
          ~goodput:(float_of_int (attempted - !failed) /. float_of_int attempted)
      in
      (metrics, detail @ more)
    else begin
      Trace.write tr (out_path "trace-fleet.tsv");
      let count () = on_fresh_domain (fun () -> snd (replay (Trace.create ()) (seed_of 0))) in
      let c1 = count () and c2 = count () in
      let self = Trace.self_times tr in
      let replayed = float_of_int (!replays * devices) in
      let per_device label = snd (self label) /. replayed in
      let layers = [ "sample"; "kernel"; "observe"; "merge" ] in
      let covered = List.fold_left (fun a l -> a +. snd (self l)) 0.0 layers in
      [ m "sample.ms" "ms" (per_device "sample");
        m "kernel.ms" "ms" (per_device "kernel");
        m "count.device_cycles" "count" (float_of_int c1);
        m "observe.ms" "ms" (per_device "observe");
        m "merge.ms" "ms" (per_device "merge");
        m "count.exact" "bool" (if c1 = c2 then 1.0 else 0.0);
        (* busy time of all pool slots over the pool-2 runs' wall time *)
        m "pool.busy_share" "share"
          ((p1.busy_s -. p0.busy_s) /. (!pool_ms *. 1e-3 *. float_of_int pool_size));
        m "pool.steals" "count"
          (float_of_int (p1.steals - p0.steals) /. float_of_int calls);
        m "unexplained_share" "share" ((!replay_ms -. covered) /. !replay_ms);
        m "trace_overhead_share" "share" ((!replay_ms -. !record_ms) /. !record_ms);
        m "alloc.minor_words_per_op" "words/op" (!minor /. replayed) ],
      detail
    end
  in
  { attempted; failed = !failed; metrics; detail }
