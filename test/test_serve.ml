(* The serve daemon: request parsing, end-to-end batching on the
   work-stealing pool, bit-identity with single-shot runs, in-flight
   cancellation, and bounded admission. *)

module Pool = Batsched_numeric.Pool
module Rng = Batsched_numeric.Rng
module Events = Batsched_obs.Events
module Request = Batsched_serve.Request
module Daemon = Batsched_serve.Daemon
module Soak = Batsched_serve.Soak
module Annealing = Batsched_baselines.Annealing
module Solution = Batsched_baselines.Solution

let graph_src =
  "graph g\n\
   task A 600:2 350:3 150:5\n\
   task B 519:2 319:3 163:5\n\
   task C 417:2 250:3 120:5\n\
   edge A B\n\
   edge B C"

let request_line ?(id = "r1") ?(algo = "annealing") ?(model = "rakhmatov")
    ?(seed = 7) ?(extra = "") () =
  Printf.sprintf
    "{\"id\":\"%s\",\"deadline\":12.0,\"algo\":\"%s\",\"model\":\"%s\",\
     \"seed\":%d%s,\"graph\":\"%s\"}"
    id algo model seed extra
    (Batsched_obs.Json.escape_string graph_src)

(* --- Request.of_json --- *)

let test_parse_submit () =
  match Request.of_json (request_line ~extra:",\"t0\":50,\"steps\":3" ()) with
  | Ok (Request.Submit r) ->
      Alcotest.(check string) "id" "r1" r.Request.id;
      Alcotest.(check (float 0.0)) "deadline" 12.0 r.Request.deadline;
      Alcotest.(check string) "algo" "annealing" r.Request.search.Request.algo;
      Alcotest.(check int) "seed" 7 r.Request.search.Request.seed;
      Alcotest.(check (option int)) "steps" (Some 3)
        r.Request.search.Request.steps;
      Alcotest.(check (option (float 0.0))) "t0" (Some 50.0)
        r.Request.search.Request.t0
  | Ok (Request.Cancel _) -> Alcotest.fail "parsed as cancel"
  | Error msg -> Alcotest.fail msg

let test_parse_cancel () =
  match Request.of_json "{\"cancel\":\"r9\"}" with
  | Ok (Request.Cancel id) -> Alcotest.(check string) "id" "r9" id
  | _ -> Alcotest.fail "expected cancel"

let expect_error name line =
  match Request.of_json line with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail (name ^ ": expected a parse error")

let test_parse_rejects () =
  expect_error "not json" "{oops";
  expect_error "missing id"
    (Printf.sprintf "{\"deadline\":9.0,\"graph\":\"%s\"}"
       (Batsched_obs.Json.escape_string graph_src));
  expect_error "missing graph" "{\"id\":\"r1\",\"deadline\":9.0}";
  expect_error "unknown algo" (request_line ~algo:"gradient-descent" ());
  expect_error "unknown model" (request_line ~model:"unobtanium" ());
  expect_error "bad graph"
    "{\"id\":\"r1\",\"deadline\":9.0,\"graph\":\"task without header\"}";
  expect_error "non-positive deadline"
    (Printf.sprintf "{\"id\":\"r1\",\"deadline\":0.0,\"graph\":\"%s\"}"
       (Batsched_obs.Json.escape_string graph_src))

(* Search parameters that would only fail inside the search are
   rejected at parse time, with the field named in the error. *)
let expect_message name want line =
  match Request.of_json line with
  | Error msg -> Alcotest.(check string) name want msg
  | Ok _ -> Alcotest.fail (name ^ ": expected a parse error")

let test_parse_rejects_beta () =
  List.iter
    (fun v ->
      expect_message ("beta " ^ v) "beta must be positive and finite"
        (request_line ~extra:(",\"beta\":" ^ v) ()))
    [ "-1"; "0"; "1e400" ]

let test_parse_rejects_t0 () =
  List.iter
    (fun v ->
      expect_message ("t0 " ^ v) "t0 must be positive and finite"
        (request_line ~extra:(",\"t0\":" ^ v) ()))
    [ "-5"; "0"; "1e400" ]

(* Every accepted request must do bounded work: a non-finite deadline
   and count knobs that are fractional or outside their caps are
   rejected, each message naming the accepted range. *)
let line_with ~deadline ~seed ~extra =
  Printf.sprintf
    "{\"id\":\"r1\",\"deadline\":%s,\"algo\":\"iterative-ms\",\"seed\":%s%s,\
     \"graph\":\"%s\"}"
    deadline seed extra
    (Batsched_obs.Json.escape_string graph_src)

let test_parse_rejects_infinite_deadline () =
  List.iter
    (fun v ->
      expect_message ("deadline " ^ v) "deadline must be positive and finite"
        (line_with ~deadline:v ~seed:"7" ~extra:""))
    [ "1e999"; "-1e999"; "0" ]

let test_parse_rejects_bad_seed () =
  List.iter
    (fun v ->
      expect_message ("seed " ^ v) "seed must be an integer in [0, 1073741823]"
        (line_with ~deadline:"12" ~seed:v ~extra:""))
    [ "2.5"; "-1"; "1073741824"; "1e999" ]

let expect_knob_rejected knob want values =
  List.iter
    (fun v ->
      expect_message (knob ^ " " ^ v) want
        (line_with ~deadline:"12" ~seed:"7"
           ~extra:(Printf.sprintf ",\"%s\":%s" knob v)))
    values

let test_parse_rejects_bad_starts () =
  expect_knob_rejected "starts" "starts must be an integer in [1, 64]"
    [ "2.7"; "0"; "65"; "1e30" ]

let test_parse_rejects_bad_steps () =
  expect_knob_rejected "steps" "steps must be an integer in [1, 10000]"
    [ "1.5"; "0"; "10001"; "1e30" ]

let test_parse_rejects_bad_samples () =
  expect_knob_rejected "samples" "samples must be an integer in [1, 10000]"
    [ "3.5"; "0"; "10001"; "1e30" ]

let test_parse_accepts_caps () =
  List.iter
    (fun (seed, extra) ->
      match Request.of_json (line_with ~deadline:"12" ~seed ~extra) with
      | Ok (Request.Submit _) -> ()
      | Ok (Request.Cancel _) -> Alcotest.fail "parsed as cancel"
      | Error msg -> Alcotest.fail (msg ^ ": " ^ seed ^ extra))
    [ ("0", ",\"starts\":1,\"steps\":1,\"samples\":1");
      ("1073741823", ",\"starts\":64,\"steps\":10000,\"samples\":10000");
      ("7.0", ",\"starts\":2.0") ]

(* --- daemon end-to-end --- *)

let with_daemon ?(capacity = 64) ?(pool_size = 4) ?(events = Events.noop)
    ?(stream_search = false) f =
  Pool.with_pool pool_size @@ fun pool ->
  f (Daemon.create ~capacity ~stream_search ~pool ~events ())

let test_daemon_mixed_batch () =
  with_daemon @@ fun d ->
  let n = 24 in
  List.iter (Daemon.handle_line d) (Soak.mixed_lines ~n ~seed:5);
  Daemon.drain d;
  let c = Daemon.counts d in
  Alcotest.(check int) "accepted" n c.Daemon.accepted;
  Alcotest.(check int) "completed" n c.Daemon.completed;
  Alcotest.(check int) "errors" 0 c.Daemon.errors;
  Alcotest.(check int) "rejected" 0 c.Daemon.rejected

(* A served request must commit exactly the solution a direct run with
   the same seed and knobs commits — nested regions degrade to
   sequential on the worker, so pooling cannot perturb the search. *)
let test_daemon_bit_identical_to_single_shot () =
  let events = Events.create_memory () in
  (with_daemon ~events ~stream_search:false @@ fun d ->
   Daemon.handle_line d (request_line ~extra:",\"t0\":80,\"steps\":4" ());
   Daemon.drain d);
  let result =
    match
      List.find_opt
        (fun (r : Events.record) -> r.Events.kind = "result")
        (Events.snapshot events)
    with
    | Some r -> r
    | None -> Alcotest.fail "no result record"
  in
  let field name =
    match List.assoc_opt name result.Events.fields with
    | Some (Events.F v) -> v
    | _ -> Alcotest.fail ("missing float field " ^ name)
  in
  (* the same search, run directly *)
  let g = Batsched_taskgraph.Textio.of_string graph_src in
  let params =
    { Annealing.default_params with
      Annealing.initial_temperature = 80.0;
      steps_per_temperature = 4 }
  in
  let sol =
    Annealing.run ~params
      ~rng:(Rng.create 7)
      ~model:(Batsched_battery.Rakhmatov.model ())
      g ~deadline:12.0
  in
  Alcotest.(check (float 0.0)) "sigma" sol.Solution.sigma (field "sigma");
  Alcotest.(check (float 0.0)) "finish" sol.Solution.finish (field "finish")

let slow_line id =
  request_line ~id ~extra:",\"t0\":1e7,\"steps\":5000" ()

let test_daemon_cancel_in_flight () =
  let t0 = Unix.gettimeofday () in
  (with_daemon @@ fun d ->
   Daemon.handle_line d (slow_line "slow");
   (* give the job a moment to actually start its ladder *)
   Unix.sleepf 0.01;
   Daemon.handle_line d "{\"cancel\":\"slow\"}";
   Daemon.drain d;
   let c = Daemon.counts d in
   Alcotest.(check int) "cancelled" 1 c.Daemon.cancelled;
   Alcotest.(check int) "completed" 0 c.Daemon.completed);
  (* a full 1e7-to-1 ladder at 5000 steps/level would run for minutes;
     promptness means we return within a level or two *)
  Alcotest.(check bool) "prompt" true (Unix.gettimeofday () -. t0 < 30.0)

let test_daemon_cancel_before_submit () =
  with_daemon @@ fun d ->
  Daemon.handle_line d "{\"cancel\":\"early\"}";
  Daemon.handle_line d (slow_line "early");
  Daemon.drain d;
  (* the early cancel is spent on the first submit *)
  Daemon.handle_line d (request_line ~id:"early" ());
  Daemon.drain d;
  let c = Daemon.counts d in
  Alcotest.(check int) "cancelled on entry" 1 c.Daemon.cancelled;
  Alcotest.(check int) "resubmit completes" 1 c.Daemon.completed

(* A second submit of an id still in flight is refused with an error
   naming the id; the first request keeps its own cancel token, so a
   cancel of that id stops it alone. *)
let test_daemon_duplicate_id_rejected () =
  let events = Events.create_memory () in
  (with_daemon ~events @@ fun d ->
   Daemon.handle_line d (slow_line "dup");
   Alcotest.(check bool) "duplicate refused" true
     (Daemon.submit d
        (match Request.of_json (request_line ~id:"dup" ()) with
         | Ok (Request.Submit r) -> r
         | _ -> Alcotest.fail "expected submit")
      = `Rejected);
   Daemon.handle_line d "{\"cancel\":\"dup\"}";
   Daemon.drain d;
   let c = Daemon.counts d in
   Alcotest.(check int) "accepted" 1 c.Daemon.accepted;
   Alcotest.(check int) "cancelled" 1 c.Daemon.cancelled;
   Alcotest.(check int) "errors" 1 c.Daemon.errors);
  let errors =
    List.filter
      (fun (r : Events.record) -> r.Events.kind = "error")
      (Events.snapshot events)
  in
  match errors with
  | [ r ] ->
      Alcotest.(check bool) "names the id" true
        (List.assoc_opt "req" r.Events.fields = Some (Events.S "dup"));
      Alcotest.(check bool) "message" true
        (List.assoc_opt "message" r.Events.fields
         = Some (Events.S "duplicate request id in flight"))
  | _ -> Alcotest.fail "expected one error record"

let test_daemon_id_reused_after_finish () =
  with_daemon @@ fun d ->
  Daemon.handle_line d (request_line ~id:"again" ());
  Daemon.drain d;
  Daemon.handle_line d (request_line ~id:"again" ());
  Daemon.drain d;
  let c = Daemon.counts d in
  Alcotest.(check int) "accepted" 2 c.Daemon.accepted;
  Alcotest.(check int) "completed" 2 c.Daemon.completed;
  Alcotest.(check int) "errors" 0 c.Daemon.errors

let test_daemon_overload () =
  let events = Events.create_memory () in
  (with_daemon ~capacity:1 ~events @@ fun d ->
   Daemon.handle_line d (slow_line "hog");
   Daemon.handle_line d (request_line ~id:"spill" ());
   Daemon.handle_line d "{\"cancel\":\"hog\"}";
   Daemon.drain d;
   let c = Daemon.counts d in
   Alcotest.(check int) "rejected" 1 c.Daemon.rejected;
   Alcotest.(check int) "accepted" 1 c.Daemon.accepted);
  let overloaded =
    List.filter
      (fun (r : Events.record) -> r.Events.kind = "overloaded")
      (Events.snapshot events)
  in
  Alcotest.(check int) "overloaded record" 1 (List.length overloaded)

let test_daemon_malformed_line () =
  let events = Events.create_memory () in
  (with_daemon ~events @@ fun d ->
   Daemon.handle_line d "{not json at all";
   Daemon.handle_line d "";
   Daemon.drain d;
   Alcotest.(check int) "errors" 1 (Daemon.counts d).Daemon.errors);
  Alcotest.(check bool) "parse_error record" true
    (List.exists
       (fun (r : Events.record) -> r.Events.kind = "parse_error")
       (Events.snapshot events))

let test_soak_run () =
  Pool.with_pool 4 @@ fun pool ->
  let r = Soak.run ~pool ~n:40 () in
  Alcotest.(check int) "completed" 40 r.Soak.counts.Daemon.completed;
  Alcotest.(check int) "errors" 0 r.Soak.counts.Daemon.errors;
  Alcotest.(check bool) "throughput positive" true (r.Soak.req_per_s > 0.0);
  Alcotest.(check bool) "p99 >= p50" true
    (r.Soak.latency_p99_ms >= r.Soak.latency_p50_ms)

let test_fixture_shape () =
  let lines = Soak.fixture_lines ~n:10 ~seed:3 in
  Alcotest.(check int) "line count" 11 (List.length lines);
  Alcotest.(check bool) "ends with the cancel" true
    (List.nth lines 10 = "{\"cancel\":\"slow-1\"}");
  List.iter
    (fun l ->
      match Request.of_json l with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail (msg ^ ": " ^ l))
    lines

let () =
  Alcotest.run "serve"
    [ ( "request",
        [ Alcotest.test_case "parse submit" `Quick test_parse_submit;
          Alcotest.test_case "parse cancel" `Quick test_parse_cancel;
          Alcotest.test_case "rejects" `Quick test_parse_rejects;
          Alcotest.test_case "rejects bad beta" `Quick test_parse_rejects_beta;
          Alcotest.test_case "rejects bad t0" `Quick test_parse_rejects_t0;
          Alcotest.test_case "rejects infinite deadline" `Quick
            test_parse_rejects_infinite_deadline;
          Alcotest.test_case "rejects bad seed" `Quick test_parse_rejects_bad_seed;
          Alcotest.test_case "rejects bad starts" `Quick test_parse_rejects_bad_starts;
          Alcotest.test_case "rejects bad steps" `Quick test_parse_rejects_bad_steps;
          Alcotest.test_case "rejects bad samples" `Quick
            test_parse_rejects_bad_samples;
          Alcotest.test_case "accepts the caps" `Quick test_parse_accepts_caps ] );
      ( "daemon",
        [ Alcotest.test_case "mixed batch" `Quick test_daemon_mixed_batch;
          Alcotest.test_case "bit-identical to single-shot" `Quick
            test_daemon_bit_identical_to_single_shot;
          Alcotest.test_case "cancel in flight" `Quick
            test_daemon_cancel_in_flight;
          Alcotest.test_case "cancel before submit" `Quick
            test_daemon_cancel_before_submit;
          Alcotest.test_case "duplicate id rejected" `Quick
            test_daemon_duplicate_id_rejected;
          Alcotest.test_case "id reused after finish" `Quick
            test_daemon_id_reused_after_finish;
          Alcotest.test_case "overload" `Quick test_daemon_overload;
          Alcotest.test_case "malformed line" `Quick
            test_daemon_malformed_line ] );
      ( "soak",
        [ Alcotest.test_case "run" `Quick test_soak_run;
          Alcotest.test_case "fixture shape" `Quick test_fixture_shape ] ) ]
