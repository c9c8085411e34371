(* serve-mix: an open loop at one fixed rate.  One generator on the main
   domain sends wire lines through [Daemon.handle_line] onto a 2-domain
   pool (one helper domain runs the requests), evenly spaced, and each
   request is timed from when it was due to the [result] record on the
   daemon's response stream.  The mix covers inline graphs from G2/G3 up to 64
   tasks, all four algorithms and all four analytic models, so it
   exercises parse, admission, queueing, the annealing/random/delta
   search paths and response encoding. *)

open Batsched_taskgraph
open Batsched_sched
open Common
module Pool = Batsched_numeric.Pool
module Rng = Batsched_numeric.Rng
module Json = Batsched_obs.Json
module Request = Batsched_serve.Request
module Daemon = Batsched_serve.Daemon
module Annealing = Batsched_baselines.Annealing
module Random_search = Batsched_baselines.Random_search
module Solution = Batsched_baselines.Solution

let pool_size = 2

(* Requests per second.  Chosen so the helper domain is about half busy
   (about 45%) at the parent commit of the benchmark; fixed, so a faster
   daemon shows as lower latency rather than as a different load. *)
let rate = 200.0

(* The mix comes in blocks of this many requests, one of each (graph,
   algorithm, model) combination. *)
let block = 80

(* A request counts towards [goodput_share] if its result is correct
   and arrives within this many milliseconds of when it was due. *)
let latency_limit_ms = 100.0

let algos =
  [| ("iterative", []);
     ("iterative-ms", [ ("starts", 2.0) ]);
     ("annealing", [ ("t0", 100.0); ("steps", 10.0) ]);
     ("random", [ ("samples", 20.0) ]) |]

let models = Array.of_list Request.models

(* G2 and G3 at a Table 4 deadline, and seeded fork-join graphs of 16,
   32 and 64 tasks at 60% slack. *)
let graphs ~rng =
  let spec = Generators.default_spec in
  let gen n widths =
    let g = Generators.fork_join ~rng ~spec ~widths in
    (Printf.sprintf "fj%d" n, g, Generators.feasible_deadline g ~slack:0.6)
  in
  [| ("g2", Instances.g2, 75.0);
     ("g3", Instances.g3, 230.0);
     gen 16 [ 5; 4; 4 ];
     gen 32 [ 9; 9; 9 ];
     gen 64 [ 15; 15; 15; 14 ] |]

let request_line ~id ~graph_json ~deadline ~algo ~knobs ~model ~seed =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "{\"id\":\"%s\",\"deadline\":%.17g,\"algo\":\"%s\",\"model\":\"%s\",\"seed\":%d"
    id deadline algo model seed;
  List.iter (fun (k, v) -> Printf.bprintf b ",\"%s\":%g" k v) knobs;
  Printf.bprintf b ",\"graph\":\"%s\"}" graph_json;
  Buffer.contents b

(* [n] request lines.  Every block holds each (graph, algorithm, model)
   combination once, in an order drawn from the seed, with fork-join
   graphs of its own: a run's cost then averages over many graphs
   rather than resting on the three one seed would draw, and runs on
   different seeds send the same mix. *)
let lines ~seed ~n =
  let rng = Rng.create seed in
  let combos =
    Array.concat
      (List.concat_map
         (fun gi ->
           List.init (Array.length algos) (fun ai ->
               Array.init (Array.length models) (fun mi -> (gi, ai, mi))))
         (List.init (Array.length (graphs ~rng)) Fun.id))
  in
  assert (Array.length combos = block);
  let order = Array.copy combos in
  let gs = ref [||] and graph_json = ref [||] in
  Array.init n (fun i ->
      if i mod block = 0 then begin
        gs := graphs ~rng;
        graph_json :=
          Array.map (fun (_, g, _) -> Json.escape_string (Textio.to_string g)) !gs;
        Rng.shuffle rng order
      end;
      let gi, ai, mi = order.(i mod block) in
      let _, _, deadline = !gs.(gi) in
      let algo, knobs = algos.(ai) in
      request_line ~id:(Printf.sprintf "q%d" i) ~graph_json:!graph_json.(gi)
        ~deadline ~algo ~knobs
        ~model:models.(mi) ~seed:(Rng.int rng 1_000_000))

(* The single-shot run of a request: the searches [basched] runs for
   the same knobs, which the daemon documents its results to be
   bit-identical to. *)
let single_shot (req : Request.t) =
  let s = req.Request.search in
  let g = req.Request.graph and deadline = req.Request.deadline in
  let model = Request.model s in
  let rng = Rng.create s.Request.seed in
  match s.Request.algo with
  | "annealing" ->
      let p = Annealing.default_params in
      let p =
        match s.Request.steps with
        | Some n -> { p with Annealing.steps_per_temperature = n }
        | None -> p
      in
      let p =
        match s.Request.t0 with
        | Some t0 -> { p with Annealing.initial_temperature = t0 }
        | None -> p
      in
      Annealing.run ~params:p ~rng ~model g ~deadline
  | "random" -> Random_search.run ?samples:s.Request.samples ~rng ~model g ~deadline
  | algo ->
      let cfg = Batsched.Config.make ~model ~deadline () in
      let r =
        if algo = "iterative-ms" then
          Batsched.Iterate.run_multistart ~rng ~starts:s.Request.starts cfg g
        else Batsched.Iterate.run cfg g
      in
      Solution.of_schedule ~model g r.Batsched.Iterate.schedule

let render g (sol : Solution.t) =
  let sched = sol.Solution.schedule in
  ( String.concat " "
      (List.map (fun i -> (Graph.task g i).Task.name) sched.Schedule.sequence),
    String.concat " "
      (List.map string_of_int (Assignment.to_list sched.Schedule.assignment)) )

type answer = {
  t_ns : float;  (** stream clock, ns since the stream was created *)
  sigma : float;
  finish : float;
  sequence : string;
  points : string;
}

(* The [result] records of the response stream, by request id.  A
   request answered any other way (error, overloaded) has none. *)
let read_answers path =
  let results = Hashtbl.create 1024 in
  let ic = open_in path in
  (try
     while true do
       let j = Json.parse (input_line ic) in
       match Json.str_field "kind" j with
       | Some "result" ->
           let num k = Option.get (Json.num_field k j)
           and str k = Option.get (Json.str_field k j) in
           Hashtbl.replace results (str "req")
             { t_ns = num "t_ns";
               sigma = num "sigma";
               finish = num "finish";
               sequence = str "sequence";
               points = str "points" }
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  results

type env = {
  pool : Pool.t;
  lines : string array;
}

(* Requests sent in a run of [seconds]. *)
let requests ~seconds = Stdlib.max 1 (int_of_float (rate *. seconds))

(* Lines for the whole run, made up front so the generator only sends. *)
let setup ~seed ~seconds () =
  let lines = lines ~seed ~n:(requests ~seconds) in
  let pool = Pool.create pool_size in
  (* warm-up: one block of the mix through a throwaway daemon spawns the
     helper domain and fills its caches *)
  let d = Daemon.create ~capacity:256 ~stream_search:false ~pool ~events:Events.noop () in
  Array.iteri (fun i l -> if i < block then Daemon.handle_line d l) lines;
  Daemon.drain d;
  { pool; lines }

(* What one pass of the generator saw: per request, how late the
   generator sent it, the traced parse and admission times, and its
   latency from when it was due to its [result] record ([nan] without
   one). *)
type sent = {
  late : float array;
  parse_us : float array;
  admit_us : float array;
  rejected : int;
  lat : float array;
  answers : (string, answer) Hashtbl.t;
  wall_s : float;
  busy_s : float;  (** busy time of the helper domain, which runs every job *)
  steals : int;
}

let worker_totals pool =
  let busy = ref 0.0 and steals = ref 0 in
  Array.iteri
    (fun k (w : Pool.worker_stat) ->
      if k > 0 then busy := !busy +. w.Pool.busy_s;
      steals := !steals + w.Pool.steals)
    (Pool.worker_stats pool);
  (!busy, !steals)

(* Send lines [0, n) at [rate] through a fresh daemon.  Traced, each
   line is parsed with [Request.of_json] and admitted with
   [Daemon.submit] under the generator's own clock; untraced, it goes
   through [Daemon.handle_line] as a client's line would. *)
let send env ~n ~traced =
  let path = out_path "serve-responses.jsonl" in
  let oc = open_out path in
  (* the stream's epoch lies within a microsecond after this read *)
  let epoch = now_ns () in
  let events = Events.create_channel oc in
  (* an admission bound of a few seconds' worth of backlog at half load,
     so a stall of the machine shows as latency rather than as refused
     requests *)
  let d = Daemon.create ~capacity:256 ~stream_search:false ~pool:env.pool ~events () in
  let period_ns = 1e9 /. rate in
  let due = Array.make n 0.0 and late = Array.make n 0.0 in
  let parse_us = Array.make n 0.0 and admit_us = Array.make n 0.0 in
  let rejected = ref 0 in
  let busy0, steals0 = worker_totals env.pool in
  let t_start = now_ns () +. 1e6 in
  for i = 0 to n - 1 do
    let t_due = t_start +. (float_of_int i *. period_ns) in
    due.(i) <- t_due;
    (* sleep until a millisecond before the request is due, then spin:
       a sleeping vCPU can wake late by a varying amount, which would be
       charged to the daemon, and a generator that spun all the time
       would take the helper domain's CPU whenever the machine runs the
       two domains on fewer cores *)
    let ahead = t_due -. now_ns () in
    if ahead > 1.5e6 then Unix.sleepf ((ahead -. 1e6) *. 1e-9);
    while now_ns () < t_due do
      Domain.cpu_relax ()
    done;
    let t0 = now_ns () in
    late.(i) <- (t0 -. t_due) *. 1e-6;
    if not traced then Daemon.handle_line d env.lines.(i)
    else begin
      let parsed = Request.of_json env.lines.(i) in
      let t1 = now_ns () in
      parse_us.(i) <- (t1 -. t0) *. 1e-3;
      match parsed with
      | Ok (Request.Submit req) ->
          let r = Daemon.submit d req in
          admit_us.(i) <- ms_since t1 *. 1e3;
          if r = `Rejected then incr rejected
      | Ok (Request.Cancel _) | Error _ -> ()
    end
  done;
  Daemon.drain d;
  let t_end = now_ns () in
  let busy1, steals1 = worker_totals env.pool in
  Events.close events;
  close_out oc;
  let answers = read_answers path in
  let lat =
    Array.init n (fun i ->
        match Hashtbl.find_opt answers (Printf.sprintf "q%d" i) with
        | Some a -> (epoch +. a.t_ns -. due.(i)) *. 1e-6
        | None -> Float.nan)
  in
  { late; parse_us; admit_us; rejected = !rejected; lat; answers;
    wall_s = (t_end -. t_start) *. 1e-9;
    busy_s = busy1 -. busy0;
    steals = steals1 - steals0 }

(* The single-shot run of line [i], made once and shared by the passes
   that sent it: the request, its solution, the search time in ms and
   the minor words it allocated. *)
let expected env =
  let memo = Hashtbl.create 1024 in
  fun i ->
    match Hashtbl.find_opt memo i with
    | Some x -> x
    | None ->
        let x =
          match Request.of_json env.lines.(i) with
          | Ok (Request.Submit req) ->
              let w0 = Gc.minor_words () in
              let t0 = now_ns () in
              let sol = single_shot req in
              let dt = ms_since t0 in
              Some (req, sol, dt, Gc.minor_words () -. w0)
          | Ok (Request.Cancel _) | Error _ -> None
        in
        Hashtbl.add memo i x;
        x

(* Check every answer of a pass against the single-shot run of its
   request.  Returns (failed, answered correctly within the latency
   limit). *)
let check expected (s : sent) =
  let failed = ref 0 and good = ref 0 in
  Array.iteri
    (fun i latency ->
      match (Hashtbl.find_opt s.answers (Printf.sprintf "q%d" i), expected i) with
      | Some a, Some (req, sol, _, _) ->
          let sequence, points = render req.Request.graph sol in
          if
            same_bits a.sigma sol.Solution.sigma
            && same_bits a.finish sol.Solution.finish
            && a.sequence = sequence && a.points = points
          then (if latency <= latency_limit_ms then incr good)
          else incr failed
      | _ -> incr failed)
    s.lat;
  (!failed, !good)

let answered lat = Array.of_list (List.filter (fun l -> not (Float.is_nan l)) (Array.to_list lat))

let lateness_detail (s : sent) =
  [ ("gen.late_ms_p99", percentile s.late 99.0);
    ("gen.late_ms_max", Array.fold_left Float.max 0.0 s.late) ]

(* The traced pass: each request's latency splits into the generator's
   lateness, parse, admission, search (the single-shot run), encode and
   queue wait, which is what remains.  The tracing overhead is the
   traced pass's median latency against [plain_p50], that of untraced
   passes of the same requests. *)
let layer_metrics expected ~plain_p50 (s : sent) =
  let n = Array.length s.lat in
  let encode_us = Array.make n 0.0 and search_of = Array.make n 0.0 in
  let search_ms = Hashtbl.create 4 in
  let minor = ref 0.0 in
  let oc = open_out (out_path "serve-encode.jsonl") in
  let encode_events = Events.create_channel oc in
  for i = 0 to n - 1 do
    match expected i with
    | Some (req, sol, dt, words) ->
        minor := !minor +. words;
        let algo = req.Request.search.Request.algo in
        let prev = Option.value (Hashtbl.find_opt search_ms algo) ~default:[] in
        Hashtbl.replace search_ms algo (dt :: prev);
        search_of.(i) <- dt;
        let sequence, points = render req.Request.graph sol in
        (* the daemon's result record, encoded onto a stream of the same
           kind *)
        let t1 = now_ns () in
        Events.emit encode_events "result"
          [ ("req", Events.S (Printf.sprintf "q%d" i));
            ("algo", Events.S algo);
            ("model", Events.S req.Request.search.Request.model_name);
            ("sigma", Events.F sol.Solution.sigma);
            ("finish", Events.F sol.Solution.finish);
            ("queue_ms", Events.F 0.0);
            ("wall_ms", Events.F dt);
            ("sequence", Events.S sequence);
            ("points", Events.S points) ];
        encode_us.(i) <- ms_since t1 *. 1e3
    | None -> ()
  done;
  Events.close encode_events;
  close_out oc;
  (* a negative remainder is latency the layer figures over-count,
     reported as unexplained *)
  let queue = Array.make n 0.0 and over = ref 0.0 and total = ref 0.0 in
  Array.iteri
    (fun i l ->
      if not (Float.is_nan l) then begin
        let r =
          l -. s.late.(i)
          -. ((s.parse_us.(i) +. s.admit_us.(i) +. encode_us.(i)) *. 1e-3)
          -. search_of.(i)
        in
        queue.(i) <- Float.max 0.0 r;
        if r < 0.0 then over := !over -. r;
        total := !total +. l
      end)
    s.lat;
  (* one line per request: its latency and the layers it splits into *)
  let oc = open_out (out_path "trace-serve.tsv") in
  Array.iteri
    (fun i l ->
      Printf.fprintf oc "q%d\t%.6f\t%.6f\t%.3f\t%.3f\t%.6f\t%.6f\t%.3f\n" i l
        s.late.(i) s.parse_us.(i) s.admit_us.(i) queue.(i) search_of.(i) encode_us.(i))
    s.lat;
  close_out oc;
  let algo_p50 a =
    match Hashtbl.find_opt search_ms a with
    | Some l -> median (Array.of_list l)
    | None -> 0.0
  in
  [ m "parse.us_p50" "us" (median s.parse_us);
    m "parse.us_p99" "us" (percentile s.parse_us 99.0);
    m "admit.us_p50" "us" (median s.admit_us);
    m "admit.rejected" "count" (float_of_int s.rejected);
    m "queue.ms_p50" "ms" (median queue);
    m "queue.ms_p99" "ms" (percentile queue 99.0);
    m "pool.busy_share" "share" (s.busy_s /. s.wall_s);
    m "pool.steals" "count" (float_of_int s.steals);
    m "search.ms_p50.iterative" "ms" (algo_p50 "iterative");
    m "search.ms_p50.iterative-ms" "ms" (algo_p50 "iterative-ms");
    m "search.ms_p50.annealing" "ms" (algo_p50 "annealing");
    m "search.ms_p50.random" "ms" (algo_p50 "random");
    m "encode.us_p50" "us" (median encode_us);
    m "gen.late_ms_p99" "ms" (percentile s.late 99.0);
    m "gen.late_ms_max" "ms" (Array.fold_left Float.max 0.0 s.late);
    m "unexplained_share" "share" (!over /. !total);
    m "trace_overhead_share" "share" ((median (answered s.lat) -. plain_p50) /. plain_p50);
    m "alloc.minor_words_per_op" "words/op" (!minor /. float_of_int n) ]

let run ~seed ~seconds ~trace =
  let env, setup_s =
    timed_setup ~setup:(setup ~seed ~seconds) ~discard:(fun e -> Pool.shutdown e.pool)
  in
  Fun.protect ~finally:(fun () -> Pool.shutdown env.pool) @@ fun () ->
  let expected = expected env in
  let n = requests ~seconds in
  if not trace then begin
    let s = send env ~n ~traced:false in
    let failed, good = check expected s in
    (* wall-clock latencies, not rescaled by the speed kernel: most of a
       served request's latency is waiting (queueing, waking the helper
       domain), which the kernel's speed does not track *)
    let lats = answered s.lat in
    let metrics, more =
      end_to_end ~setup_s
        ~ops_per_s:(float_of_int (Array.length lats) /. s.wall_s)
        ~lats
        ~goodput:(float_of_int good /. float_of_int n)
    in
    { attempted = n;
      failed;
      metrics;
      detail =
        [ ("requests", float_of_int n);
          ("rate_per_s", rate);
          ("latency_limit_ms", latency_limit_ms) ]
        @ lateness_detail s
        @ [ ("fail_share", float_of_int failed /. float_of_int n) ]
        @ more }
  end
  else begin
    (* half the requests traced, and a quarter untraced before and after
       them, over the same requests, so a drift of the machine's speed
       during the run falls on both sides *)
    let quarter = Stdlib.max 1 (n / 4) in
    let plain1 = send env ~n:quarter ~traced:false in
    let traced = send env ~n:(2 * quarter) ~traced:true in
    let plain2 = send env ~n:quarter ~traced:false in
    let failed =
      List.fold_left (fun a s -> a + fst (check expected s)) 0 [ plain1; traced; plain2 ]
    in
    let sent = 4 * quarter in
    { attempted = sent;
      failed;
      metrics =
        layer_metrics expected
          ~plain_p50:(median (Array.append (answered plain1.lat) (answered plain2.lat)))
          traced;
      detail =
        [ ("requests", float_of_int sent);
          ("rate_per_s", rate);
          ("latency_limit_ms", latency_limit_ms) ]
        @ lateness_detail traced
        @ [ ("fail_share", float_of_int failed /. float_of_int sent) ] }
  end
