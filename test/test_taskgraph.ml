(* Tests for the task-graph substrate: tasks, graphs, analyses,
   design-point laws, generators, the paper instances and the text
   format. *)

open Batsched_taskgraph

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

let pipeline () =
  (* 0 -> 1 -> 2 with 2 design points each *)
  let t id = Task.of_pairs ~id ~name:(Printf.sprintf "T%d" (id + 1))
      [ (500.0, 2.0); (100.0, 6.0) ]
  in
  Graph.make ~label:"pipe" ~edges:[ (0, 1); (1, 2) ] [ t 0; t 1; t 2 ]

let diamond () =
  (* 0 -> {1, 2} -> 3 *)
  let t id = Task.of_pairs ~id ~name:(Printf.sprintf "T%d" (id + 1))
      [ (400.0, 1.0); (200.0, 2.0); (50.0, 4.0) ]
  in
  Graph.make ~label:"diamond" ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]
    [ t 0; t 1; t 2; t 3 ]

(* --- Task --- *)

let test_task_sorts_points () =
  let t = Task.of_pairs ~id:0 ~name:"T" [ (100.0, 6.0); (500.0, 2.0) ] in
  check_float "fastest duration" 2.0 (Task.fastest t).Task.duration;
  check_float "slowest duration" 6.0 (Task.slowest t).Task.duration

let test_task_rejects_tradeoff_violation () =
  (* slower AND hungrier design point is rejected *)
  Alcotest.check_raises "violation"
    (Invalid_argument
       "Task.make: currents must be non-increasing as duration grows")
    (fun () ->
      ignore (Task.of_pairs ~id:0 ~name:"T" [ (100.0, 2.0); (500.0, 6.0) ]))

let test_task_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Task.make: no design points")
    (fun () -> ignore (Task.of_pairs ~id:0 ~name:"T" []))

let test_task_rejects_nonpositive () =
  Alcotest.check_raises "bad current"
    (Invalid_argument "Task: design point current must be positive") (fun () ->
      ignore (Task.of_pairs ~id:0 ~name:"T" [ (0.0, 2.0) ]))

let test_task_energy_and_charge () =
  let t =
    Task.of_pairs ~id:0 ~name:"T" ~voltages:[ 2.0; 1.0 ]
      [ (500.0, 2.0); (100.0, 6.0) ]
  in
  check_float "energy col0" 2000.0 (Task.energy t 0);
  check_float "charge col0" 1000.0 (Task.charge t 0);
  check_float "avg energy" 1300.0 (Task.average_energy t)

let test_task_current_bounds () =
  let t = Task.of_pairs ~id:0 ~name:"T" [ (500.0, 2.0); (100.0, 6.0) ] in
  check_float "min" 100.0 (Task.min_current t);
  check_float "max" 500.0 (Task.max_current t)

let test_task_point_out_of_range () =
  let t = Task.of_pairs ~id:0 ~name:"T" [ (500.0, 2.0) ] in
  Alcotest.check_raises "range" (Invalid_argument "Task.point: column out of range")
    (fun () -> ignore (Task.point t 1))

let test_task_voltage_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Task.of_pairs: voltage list length mismatch") (fun () ->
      ignore (Task.of_pairs ~id:0 ~name:"T" ~voltages:[ 1.0 ]
                [ (500.0, 2.0); (100.0, 6.0) ]))

(* --- Graph --- *)

let test_graph_basic_accessors () =
  let g = diamond () in
  Alcotest.(check int) "n" 4 (Graph.num_tasks g);
  Alcotest.(check int) "m" 3 (Graph.num_points g);
  Alcotest.(check int) "edges" 4 (Graph.num_edges g);
  Alcotest.(check (list int)) "preds of 3" [ 1; 2 ] (Graph.preds g 3);
  Alcotest.(check (list int)) "succs of 0" [ 1; 2 ] (Graph.succs g 0);
  Alcotest.(check (list int)) "sources" [ 0 ] (Graph.sources g);
  Alcotest.(check (list int)) "sinks" [ 3 ] (Graph.sinks g)

let test_graph_rejects_cycle () =
  let t id = Task.of_pairs ~id ~name:"T" [ (100.0, 1.0) ] in
  Alcotest.check_raises "cycle" (Invalid_argument "Graph.make: cycle detected")
    (fun () ->
      ignore (Graph.make ~edges:[ (0, 1); (1, 0) ] [ t 0; t 1 ]))

let test_graph_rejects_self_loop () =
  let t id = Task.of_pairs ~id ~name:"T" [ (100.0, 1.0) ] in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.make: self loop")
    (fun () -> ignore (Graph.make ~edges:[ (0, 0) ] [ t 0 ]))

let test_graph_rejects_mixed_point_counts () =
  let a = Task.of_pairs ~id:0 ~name:"A" [ (100.0, 1.0) ] in
  let b = Task.of_pairs ~id:1 ~name:"B" [ (100.0, 1.0); (50.0, 2.0) ] in
  Alcotest.check_raises "mixed m"
    (Invalid_argument "Graph.make: tasks disagree on design-point count")
    (fun () -> ignore (Graph.make ~edges:[] [ a; b ]))

let test_graph_rejects_duplicate_ids () =
  let t _ = Task.of_pairs ~id:0 ~name:"T" [ (100.0, 1.0) ] in
  Alcotest.check_raises "dup" (Invalid_argument "Graph.make: duplicate task id")
    (fun () -> ignore (Graph.make ~edges:[] [ t 0; t 1 ]))

let test_graph_collapses_duplicate_edges () =
  let t id = Task.of_pairs ~id ~name:"T" [ (100.0, 1.0) ] in
  let g = Graph.make ~edges:[ (0, 1); (0, 1) ] [ t 0; t 1 ] in
  Alcotest.(check int) "one edge" 1 (Graph.num_edges g)

let test_graph_map_tasks_preserves_structure () =
  let g = pipeline () in
  let g' = Graph.map_tasks (fun t -> t) g in
  Alcotest.(check int) "edges kept" (Graph.num_edges g) (Graph.num_edges g')

(* --- Analysis --- *)

let test_topological_accepts_valid () =
  let g = diamond () in
  Alcotest.(check bool) "0123" true (Analysis.is_topological g [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "0213" true (Analysis.is_topological g [ 0; 2; 1; 3 ])

let test_topological_rejects_invalid () =
  let g = diamond () in
  Alcotest.(check bool) "order violation" false
    (Analysis.is_topological g [ 1; 0; 2; 3 ]);
  Alcotest.(check bool) "duplicate" false
    (Analysis.is_topological g [ 0; 1; 1; 3 ]);
  Alcotest.(check bool) "short" false (Analysis.is_topological g [ 0; 1 ]);
  Alcotest.(check bool) "long" false
    (Analysis.is_topological g [ 0; 1; 2; 3; 3 ]);
  Alcotest.(check bool) "id too large" false
    (Analysis.is_topological g [ 0; 1; 2; 4 ]);
  Alcotest.(check bool) "negative id" false
    (Analysis.is_topological g [ -1; 0; 1; 2 ]);
  Alcotest.(check bool) "empty" false (Analysis.is_topological g [])

let test_list_schedule_respects_weight () =
  let g = diamond () in
  (* weight task 2 above task 1: 2 should come first *)
  let seq =
    Analysis.list_schedule ~weight:(fun v -> if v = 2 then 10.0 else 0.0) g
  in
  Alcotest.(check (list int)) "order" [ 0; 2; 1; 3 ] seq

let test_list_schedule_tie_breaks_low_id () =
  let g = diamond () in
  let seq = Analysis.list_schedule ~weight:(fun _ -> 1.0) g in
  Alcotest.(check (list int)) "order" [ 0; 1; 2; 3 ] seq

(* The weight function is evaluated once per task, in increasing id
   order, before the first pick — not once per ready task per step. *)
let test_list_schedule_weighs_each_task_once () =
  let g = diamond () in
  let calls = ref [] in
  let seq =
    Analysis.list_schedule
      ~weight:(fun v -> calls := v :: !calls; float_of_int v)
      g
  in
  Alcotest.(check (list int)) "order" [ 0; 2; 1; 3 ] seq;
  Alcotest.(check (list int)) "one call per id" [ 0; 1; 2; 3 ]
    (List.rev !calls)

let test_all_topological_orders_diamond () =
  let g = diamond () in
  let orders = Analysis.all_topological_orders g in
  Alcotest.(check int) "two linearizations" 2 (List.length orders);
  List.iter
    (fun o ->
      Alcotest.(check bool) "each valid" true (Analysis.is_topological g o))
    orders

let test_count_topological_orders_chain () =
  Alcotest.(check int) "chain has 1" 1
    (Analysis.count_topological_orders (pipeline ()))

let test_descendants () =
  let g = diamond () in
  Alcotest.(check (list int)) "root" [ 0; 1; 2; 3 ] (Analysis.descendants g 0);
  Alcotest.(check (list int)) "middle" [ 1; 3 ] (Analysis.descendants g 1);
  Alcotest.(check (list int)) "sink" [ 3 ] (Analysis.descendants g 3)

let test_column_time () =
  let g = pipeline () in
  check_float "fast column" 6.0 (Analysis.column_time g 0);
  check_float "slow column" 18.0 (Analysis.column_time g 1)

let test_serial_time_bounds () =
  let fast, slow = Analysis.serial_time_bounds (pipeline ()) in
  check_float "fast" 6.0 fast;
  check_float "slow" 18.0 slow

let test_current_range () =
  let lo, hi = Analysis.current_range (diamond ()) in
  check_float "lo" 50.0 lo;
  check_float "hi" 400.0 hi

let test_energy_bounds () =
  let g = pipeline () in
  (* E_min = 3 * 100*6 = 1800 ; E_max = 3 * 500*2 = 3000 *)
  let emin, emax = Analysis.energy_bounds g in
  check_float "emin" 1800.0 emin;
  check_float "emax" 3000.0 emax

let test_energy_vector_order () =
  let a = Task.of_pairs ~id:0 ~name:"A" [ (500.0, 4.0) ] (* 2000 *) in
  let b = Task.of_pairs ~id:1 ~name:"B" [ (100.0, 2.0) ] (* 200 *) in
  let c = Task.of_pairs ~id:2 ~name:"C" [ (300.0, 2.0) ] (* 600 *) in
  let g = Graph.make ~edges:[] [ a; b; c ] in
  Alcotest.(check (list int)) "increasing energy" [ 1; 2; 0 ]
    (Analysis.energy_vector g)

(* --- Designpoints --- *)

let test_cube_law_matches_g2 () =
  (* node 1 of G2: base (60 mA, 22 min) at factor 1; factor 2.5 must
     give the published 938 mA / 8.8 min *)
  let pairs, voltages =
    Designpoints.cube_law ~base_current:60.0 ~base_duration:22.0
      ~factors:Designpoints.g2_factors ()
  in
  (match pairs with
  | (i1, d1) :: _ ->
      check_close 1.0 "current" 938.0 i1;
      check_close 0.01 "duration" 8.8 d1
  | [] -> Alcotest.fail "empty");
  Alcotest.(check int) "voltages" 4 (List.length voltages)

let test_cube_law_monotone () =
  let pairs, _ =
    Designpoints.cube_law ~base_current:100.0 ~base_duration:10.0
      ~factors:[ 1.0; 0.8; 0.5 ] ()
  in
  match pairs with
  | [ (i1, d1); (i2, d2); (i3, d3) ] ->
      Alcotest.(check bool) "currents fall" true (i1 > i2 && i2 > i3);
      Alcotest.(check bool) "durations rise" true (d1 < d2 && d2 < d3)
  | _ -> Alcotest.fail "expected three points"

let test_linear_duration_law_endpoints () =
  let pairs, _ =
    Designpoints.linear_duration_law ~base_current:917.0 ~fastest_duration:7.3
      ~slowest_duration:22.0 ~factors:Designpoints.g3_factors ()
  in
  match (pairs, List.rev pairs) with
  | (i1, d1) :: _, (i5, d5) :: _ ->
      check_float "fastest duration" 7.3 d1;
      check_float "slowest duration" 22.0 d5;
      check_float "base current" 917.0 i1;
      check_close 1.0 "scaled current" 32.9 i5
  | _ -> Alcotest.fail "empty"

let test_law_validation () =
  Alcotest.check_raises "empty factors"
    (Invalid_argument "Designpoints: empty factor list") (fun () ->
      ignore (Designpoints.cube_law ~base_current:1.0 ~base_duration:1.0
                ~factors:[] ()))

(* --- Generators --- *)

let rng () = Batsched_numeric.Rng.create 11

let test_generator_chain_structure () =
  let g = Generators.chain ~rng:(rng ()) ~spec:Generators.default_spec ~n:5 in
  Alcotest.(check int) "n" 5 (Graph.num_tasks g);
  Alcotest.(check int) "edges" 4 (Graph.num_edges g);
  Alcotest.(check int) "one order" 1 (Analysis.count_topological_orders g)

let test_generator_fork_join_structure () =
  let g =
    Generators.fork_join ~rng:(rng ()) ~spec:Generators.default_spec
      ~widths:[ 3; 2 ]
  in
  (* J0 + 3 + J1 + 2 + J2 = 8 *)
  Alcotest.(check int) "n" 8 (Graph.num_tasks g);
  Alcotest.(check (list int)) "single source" [ 0 ] (Graph.sources g);
  Alcotest.(check int) "single sink" 1 (List.length (Graph.sinks g))

let test_generator_layered_connected () =
  let g =
    Generators.layered ~rng:(rng ()) ~spec:Generators.default_spec ~layers:3
      ~width:4 ~edge_prob:0.3
  in
  Alcotest.(check int) "n" 12 (Graph.num_tasks g);
  (* every non-first-layer vertex has at least one parent *)
  for v = 4 to 11 do
    Alcotest.(check bool) "has parent" true (Graph.preds g v <> [])
  done

let test_generator_series_parallel_valid () =
  let g =
    Generators.series_parallel ~rng:(rng ()) ~spec:Generators.default_spec
      ~size:12
  in
  Alcotest.(check bool) "nonempty" true (Graph.num_tasks g >= 2);
  Alcotest.(check bool) "acyclic by construction" true
    (Analysis.is_topological g (Analysis.any_topological_order g))

let test_generator_random_dag_edge_prob_extremes () =
  let g0 =
    Generators.random_dag ~rng:(rng ()) ~spec:Generators.default_spec ~n:6
      ~edge_prob:0.0
  in
  Alcotest.(check int) "no edges" 0 (Graph.num_edges g0);
  let g1 =
    Generators.random_dag ~rng:(rng ()) ~spec:Generators.default_spec ~n:6
      ~edge_prob:1.0
  in
  Alcotest.(check int) "complete dag" 15 (Graph.num_edges g1)

let test_generator_determinism () =
  let a = Generators.chain ~rng:(Batsched_numeric.Rng.create 5)
      ~spec:Generators.default_spec ~n:4
  in
  let b = Generators.chain ~rng:(Batsched_numeric.Rng.create 5)
      ~spec:Generators.default_spec ~n:4
  in
  Alcotest.(check string) "same graph" (Textio.to_string a) (Textio.to_string b)

let test_feasible_deadline_bounds () =
  let g = pipeline () in
  check_float "slack 0" 6.0 (Generators.feasible_deadline g ~slack:0.0);
  check_float "slack 1" 18.0 (Generators.feasible_deadline g ~slack:1.0);
  check_float "slack 0.5" 12.0 (Generators.feasible_deadline g ~slack:0.5)

(* --- Instances --- *)

let test_g3_shape () =
  let g = Instances.g3 in
  Alcotest.(check int) "15 tasks" 15 (Graph.num_tasks g);
  Alcotest.(check int) "5 points" 5 (Graph.num_points g);
  Alcotest.(check string) "label" "G3" (Graph.label g);
  (* spot checks against Table 1 *)
  let t1 = Graph.task g 0 in
  check_float "T1 DP1 current" 917.0 (Task.point t1 0).Task.current;
  check_float "T1 DP5 duration" 22.0 (Task.point t1 4).Task.duration;
  let t8 = Graph.task g 7 in
  Alcotest.(check (list int)) "T8 parents" [ 5; 6 ] (Graph.preds g 7);
  check_float "T8 DP2 current" 368.0 (Task.point t8 1).Task.current

let test_g3_serial_bounds_bracket_deadlines () =
  let fast, slow = Analysis.serial_time_bounds Instances.g3 in
  check_close 0.01 "fast" 85.2 fast;
  check_close 0.01 "slow" 258.0 slow;
  (* all three Table-4 deadlines are meetable but not trivial *)
  List.iter
    (fun d -> Alcotest.(check bool) "meetable nontrivial" true (d >= fast && d <= slow))
    Instances.g3_deadlines

let test_g3_fork_join_dependences () =
  let g = Instances.g3 in
  Alcotest.(check (list int)) "T1 is the only source" [ 0 ] (Graph.sources g);
  Alcotest.(check (list int)) "T15 is the only sink" [ 14 ] (Graph.sinks g);
  Alcotest.(check (list int)) "T14 parents" [ 10; 11; 12 ] (Graph.preds g 13)

let test_g2_shape () =
  let g = Instances.g2 in
  Alcotest.(check int) "9 tasks" 9 (Graph.num_tasks g);
  Alcotest.(check int) "4 points" 4 (Graph.num_points g);
  let n1 = Graph.task g 0 in
  check_float "N1 DP1" 938.0 (Task.point n1 0).Task.current;
  check_float "N1 DP4 duration" 22.0 (Task.point n1 3).Task.duration;
  let fast, slow = Analysis.serial_time_bounds g in
  check_close 0.01 "fast" 42.2 fast;
  check_close 0.01 "slow" 105.8 slow

let test_g2_cube_law_consistency () =
  (* currents across columns follow I4 * s^3 for s in {2.5,1.66,1.25,1}
     within table rounding *)
  let g = Instances.g2 in
  let worst = ref 0.0 in
  List.iter
    (fun (t : Task.t) ->
      List.iteri
        (fun j s ->
          let expected = (Task.slowest t).Task.current *. (s ** 3.0) in
          let actual = (Task.point t j).Task.current in
          let rel = Float.abs (actual -. expected) /. expected in
          if rel > !worst then worst := rel)
        Designpoints.g2_factors)
    (Graph.tasks g);
  Alcotest.(check bool) "within 2.5%" true (!worst < 0.025)

(* --- Textio --- *)

let test_textio_roundtrip_instances () =
  List.iter
    (fun g ->
      let g' = Textio.of_string (Textio.to_string g) in
      Alcotest.(check string) "roundtrip" (Textio.to_string g)
        (Textio.to_string g'))
    [ Instances.g2; Instances.g3; pipeline (); diamond () ]

let test_textio_parses_minimal () =
  let g =
    Textio.of_string
      "graph demo\ntask A 500:2 100:6\ntask B 400:1 80:5\nedge A B\n"
  in
  Alcotest.(check int) "n" 2 (Graph.num_tasks g);
  Alcotest.(check int) "edges" 1 (Graph.num_edges g);
  check_float "default voltage" 1.0 (Task.point (Graph.task g 0) 0).Task.voltage

let test_textio_comments_and_blanks () =
  let g =
    Textio.of_string "# header\n\ngraph x\ntask A 10:1  # trailing\n"
  in
  Alcotest.(check int) "n" 1 (Graph.num_tasks g)

let test_textio_reports_line_numbers () =
  (match Textio.of_string "graph x\ntask A 10:1\nedge A Missing\n" with
  | exception Textio.Parse_error { line; _ } ->
      Alcotest.(check int) "line" 3 line
  | _ -> Alcotest.fail "expected parse error")

let test_textio_rejects_bad_point () =
  (match Textio.of_string "task A banana\n" with
  | exception Textio.Parse_error { line; _ } ->
      Alcotest.(check int) "line" 1 line
  | _ -> Alcotest.fail "expected parse error")

let test_textio_rejects_duplicate_task () =
  (match Textio.of_string "task A 10:1\ntask A 10:1\n" with
  | exception Textio.Parse_error { line; _ } ->
      Alcotest.(check int) "line" 2 line
  | _ -> Alcotest.fail "expected parse error")

let test_textio_dot_mentions_all_tasks () =
  let dot = Textio.to_dot (diamond ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (let rec find i =
           if i + String.length needle > String.length dot then false
           else if String.sub dot i (String.length needle) = needle then true
           else find (i + 1)
         in
         find 0))
    [ "T1"; "T2"; "T3"; "T4"; "->" ]

(* --- Transform --- *)

let test_reduction_removes_shortcut () =
  (* 0 -> 1 -> 2 plus the redundant 0 -> 2 *)
  let t id = Task.of_pairs ~id ~name:(Printf.sprintf "T%d" id) [ (100.0, 1.0) ] in
  let g = Graph.make ~edges:[ (0, 1); (1, 2); (0, 2) ] [ t 0; t 1; t 2 ] in
  let r = Transform.transitive_reduction g in
  Alcotest.(check (list (pair int int))) "shortcut gone" [ (0, 1); (1, 2) ]
    (Graph.edges r)

let test_reduction_preserves_reachability () =
  let rng = Batsched_numeric.Rng.create 21 in
  let g =
    Generators.random_dag ~rng
      ~spec:{ Generators.default_spec with Generators.num_points = 2 } ~n:9
      ~edge_prob:0.5
  in
  let r = Transform.transitive_reduction g in
  Alcotest.(check bool) "no more edges" true
    (Graph.num_edges r <= Graph.num_edges g);
  for v = 0 to Graph.num_tasks g - 1 do
    Alcotest.(check (list int)) "same descendants"
      (Analysis.descendants g v)
      (Analysis.descendants r v)
  done

let test_reverse_flips_edges () =
  let g = diamond () in
  let r = Transform.reverse g in
  Alcotest.(check (list int)) "old sink is source" [ 3 ] (Graph.sources r);
  Alcotest.(check (list int)) "old source is sink" [ 0 ] (Graph.sinks r)

let test_merge_collapses_pipeline () =
  let g = pipeline () in
  let info = Transform.merge_chains g in
  Alcotest.(check int) "one task" 1 (Graph.num_tasks info.Transform.graph);
  Alcotest.(check (list int)) "members in order" [ 0; 1; 2 ]
    info.Transform.members.(0)

let test_merge_preserves_column_charge () =
  let g = pipeline () in
  let info = Transform.merge_chains g in
  let merged = Graph.task info.Transform.graph 0 in
  for j = 0 to Graph.num_points g - 1 do
    let original =
      Batsched_numeric.Kahan.sum_list
        (List.map (fun t -> Task.charge t j) (Graph.tasks g))
    in
    Alcotest.(check (float 1e-9)) "charge per column" original
      (Task.charge merged j)
  done

let test_merge_keeps_parallel_structure () =
  (* the diamond has no mergeable chain (fan-out/fan-in breaks links) *)
  let g = diamond () in
  let info = Transform.merge_chains g in
  Alcotest.(check int) "untouched" 4 (Graph.num_tasks info.Transform.graph)

let test_merge_expand_sequence () =
  let g = pipeline () in
  let info = Transform.merge_chains g in
  Alcotest.(check (list int)) "expansion" [ 0; 1; 2 ]
    (Transform.expand_sequence info [ 0 ]);
  Alcotest.check_raises "bad permutation"
    (Invalid_argument "Transform.expand_sequence: not a permutation")
    (fun () -> ignore (Transform.expand_sequence info [ 5 ]))

let test_merge_g3_structure () =
  (* G3's only chain is T14 -> T15 at the tail (plus T8's neighbours
     have fan-in/out); merging must keep the graph schedulable *)
  let g = Instances.g3 in
  let info = Transform.merge_chains g in
  Alcotest.(check bool) "smaller or equal" true
    (Graph.num_tasks info.Transform.graph <= Graph.num_tasks g);
  Alcotest.(check bool) "valid" true
    (Analysis.is_topological info.Transform.graph
       (Analysis.any_topological_order info.Transform.graph))

(* --- Tgff --- *)

let tgff_sample =
  "@TASK_GRAPH 0 {\n\
  \  PERIOD 300\n\
  \  TASK t0  TYPE 0\n\
  \  TASK t1  TYPE 1\n\
  \  TASK t2  TYPE 0\n\
  \  ARC a0  FROM t0  TO t1  TYPE 0\n\
  \  ARC a1  FROM t1  TO t2  TYPE 0\n\
  \  HARD_DEADLINE d0 ON t2 AT 42.5\n\
   }\n\
   @DESIGN_POINT 0 {\n\
   # type current duration voltage\n\
  \  0 900 2.0 1.0\n\
  \  1 500 3.0 1.0\n\
   }\n\
   @DESIGN_POINT 1 {\n\
  \  0 300 5.0 0.7\n\
  \  1 150 8.0 0.7\n\
   }\n"

let test_tgff_parses_sample () =
  let doc = Tgff.of_string tgff_sample in
  Alcotest.(check int) "tasks" 3 (Graph.num_tasks doc.Tgff.graph);
  Alcotest.(check int) "points" 2 (Graph.num_points doc.Tgff.graph);
  Alcotest.(check int) "edges" 2 (Graph.num_edges doc.Tgff.graph);
  Alcotest.(check (option (float 1e-9))) "deadline" (Some 42.5) doc.Tgff.deadline;
  Alcotest.(check (option (float 1e-9))) "period" (Some 300.0) doc.Tgff.period;
  (* t0 and t2 share TYPE 0 *)
  check_float "t2 current" 900.0
    (Task.point (Graph.task doc.Tgff.graph 2) 0).Task.current;
  check_float "t1 dp1 duration" 8.0
    (Task.point (Graph.task doc.Tgff.graph 1) 1).Task.duration

let test_tgff_roundtrip_instances () =
  List.iter
    (fun g ->
      let text = Tgff.to_string ~deadline:100.0 g in
      let doc = Tgff.of_string text in
      Alcotest.(check int) "tasks" (Graph.num_tasks g)
        (Graph.num_tasks doc.Tgff.graph);
      Alcotest.(check int) "points" (Graph.num_points g)
        (Graph.num_points doc.Tgff.graph);
      Alcotest.(check (list (pair int int))) "edges" (Graph.edges g)
        (Graph.edges doc.Tgff.graph);
      List.iter2
        (fun (a : Task.t) (b : Task.t) ->
          for j = 0 to Task.num_points a - 1 do
            check_float "current" (Task.point a j).Task.current
              (Task.point b j).Task.current;
            check_float "duration" (Task.point a j).Task.duration
              (Task.point b j).Task.duration
          done)
        (Graph.tasks g) (Graph.tasks doc.Tgff.graph))
    [ Instances.g2; Instances.g3 ]

let test_tgff_missing_type_errors () =
  let broken =
    "@TASK_GRAPH 0 {\n  TASK t0 TYPE 5\n}\n@DESIGN_POINT 0 {\n  0 100 1.0\n}\n"
  in
  (match Tgff.of_string broken with
  | exception Tgff.Parse_error { message; _ } ->
      Alcotest.(check bool) "mentions type" true
        (String.length message > 0)
  | _ -> Alcotest.fail "expected parse error")

let test_tgff_bad_row_line_number () =
  let broken = "@TASK_GRAPH 0 {\n  TASK t0 TYPE 0\n}\n@DESIGN_POINT 0 {\n  banana\n}\n" in
  (match Tgff.of_string broken with
  | exception Tgff.Parse_error { line; _ } -> Alcotest.(check int) "line" 5 line
  | _ -> Alcotest.fail "expected parse error")

let test_tgff_no_blocks_errors () =
  (match Tgff.of_string "# empty\n" with
  | exception Tgff.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error")

let test_tgff_second_graph_ignored () =
  let two =
    tgff_sample
    ^ "@TASK_GRAPH 1 {\n  TASK x0 TYPE 0\n}\n"
  in
  let doc = Tgff.of_string two in
  Alcotest.(check int) "only first graph" 3 (Graph.num_tasks doc.Tgff.graph)

(* --- qcheck properties --- *)

let gen_graph =
  (* random family selector over seeds *)
  QCheck.(map
            (fun (seed, kind) ->
              let rng = Batsched_numeric.Rng.create seed in
              let spec = { Generators.default_spec with Generators.num_points = 3 } in
              match kind mod 4 with
              | 0 -> Generators.chain ~rng ~spec ~n:6
              | 1 -> Generators.fork_join ~rng ~spec ~widths:[ 2; 3 ]
              | 2 -> Generators.layered ~rng ~spec ~layers:3 ~width:3 ~edge_prob:0.4
              | _ -> Generators.random_dag ~rng ~spec ~n:7 ~edge_prob:0.3)
            (pair (int_bound 10_000) (int_bound 3)))

let prop_generated_graphs_linearizable =
  QCheck.Test.make ~count:100 ~name:"generated graphs admit a linearization"
    gen_graph (fun g ->
      Analysis.is_topological g (Analysis.any_topological_order g))

(* The successor-list walk against the edge-list oracle, on random DAGs
   of up to 40 tasks and candidate orders of seven kinds: a valid order,
   then that order cut short, lengthened by a repeat, with one id
   duplicated, with one id out of range, with two positions swapped (a
   violated edge when the two are related), and a random permutation. *)
let prop_is_topological_matches_oracle =
  QCheck.Test.make ~count:500 ~name:"is_topological matches the edge-list oracle"
    QCheck.(triple (int_bound 10_000) (int_range 1 40) (int_bound 6))
    (fun (seed, n, kind) ->
      let rng = Batsched_numeric.Rng.create seed in
      let g =
        Generators.random_dag ~rng ~spec:Generators.default_spec ~n
          ~edge_prob:(Batsched_numeric.Rng.float rng 0.5)
      in
      let weights = Array.init n (fun _ -> Batsched_numeric.Rng.float rng 1.0) in
      let order =
        Array.of_list (Analysis.list_schedule ~weight:(Array.get weights) g)
      in
      let pick () = Batsched_numeric.Rng.int rng n in
      let seq =
        match kind with
        | 0 -> order
        | 1 -> Array.sub order 0 (n - 1)
        | 2 -> Array.append order [| order.(pick ()) |]
        | 3 ->
            let a = Array.copy order and i = pick () and j = pick () in
            a.(i) <- order.(if i = j then (j + 1) mod n else j);
            a
        | 4 ->
            let a = Array.copy order in
            a.(pick ()) <- (if Batsched_numeric.Rng.int rng 2 = 0 then -1 else n);
            a
        | 5 ->
            let a = Array.copy order and i = pick () and j = pick () in
            a.(i) <- order.(j);
            a.(j) <- order.(i);
            a
        | _ ->
            let a = Array.init n Fun.id in
            Batsched_numeric.Rng.shuffle rng a;
            a
      in
      let seq = Array.to_list seq in
      let got = Analysis.is_topological g seq in
      got = Batsched_oracle.Analysis.is_topological g seq
      && (match kind with
         | 0 -> got
         | 1 | 2 | 4 -> not got
         | 3 -> n = 1 || not got
         | _ -> true))

let prop_list_schedule_topological =
  QCheck.Test.make ~count:100
    ~name:"list schedule is topological for any weight"
    QCheck.(pair gen_graph (int_bound 1000))
    (fun (g, wseed) ->
      let rng = Batsched_numeric.Rng.create wseed in
      let weights =
        Array.init (Graph.num_tasks g) (fun _ -> Batsched_numeric.Rng.float rng 10.0)
      in
      Analysis.is_topological g
        (Analysis.list_schedule ~weight:(fun v -> weights.(v)) g))

let prop_textio_roundtrip =
  QCheck.Test.make ~count:50 ~name:"textio roundtrips generated graphs"
    gen_graph (fun g ->
      Textio.to_string (Textio.of_string (Textio.to_string g))
      = Textio.to_string g)

let prop_descendants_contains_self =
  QCheck.Test.make ~count:100 ~name:"descendants contain the root" gen_graph
    (fun g ->
      List.for_all
        (fun v -> List.mem v (Analysis.descendants g v))
        (List.init (Graph.num_tasks g) Fun.id))

let prop_column_times_monotone =
  QCheck.Test.make ~count:100 ~name:"column times rise toward low power"
    gen_graph (fun g ->
      let m = Graph.num_points g in
      let rec check j =
        j + 1 >= m
        || (Analysis.column_time g j <= Analysis.column_time g (j + 1) +. 1e-9
            && check (j + 1))
      in
      check 0)

(* fuzz: random single-character corruption of a valid file must either
   parse (the mutation may be harmless, e.g. inside a name) or raise the
   documented Parse_error — never crash or loop *)
let mutate ~rng text =
  let n = String.length text in
  if n = 0 then text
  else begin
    let b = Bytes.of_string text in
    let pos = Batsched_numeric.Rng.int rng n in
    (match Batsched_numeric.Rng.int rng 3 with
    | 0 -> Bytes.set b pos (Char.chr (32 + Batsched_numeric.Rng.int rng 95))
    | 1 -> Bytes.set b pos ' '
    | _ -> Bytes.set b pos '\n');
    Bytes.to_string b
  end

let prop_textio_fuzz_no_crash =
  QCheck.Test.make ~count:300 ~name:"textio survives corrupted input"
    QCheck.(pair gen_graph (int_bound 100_000))
    (fun (g, seed) ->
      let rng = Batsched_numeric.Rng.create seed in
      let corrupted = mutate ~rng (Textio.to_string g) in
      match Textio.of_string corrupted with
      | (_ : Graph.t) -> true
      | exception Textio.Parse_error _ -> true
      | exception _ -> false)

let prop_tgff_fuzz_no_crash =
  QCheck.Test.make ~count:300 ~name:"tgff survives corrupted input"
    QCheck.(pair gen_graph (int_bound 100_000))
    (fun (g, seed) ->
      let rng = Batsched_numeric.Rng.create seed in
      let corrupted = mutate ~rng (Tgff.to_string ~deadline:50.0 g) in
      match Tgff.of_string corrupted with
      | (_ : Tgff.document) -> true
      | exception Tgff.Parse_error _ -> true
      | exception _ -> false)

(* The invariant Choose's incremental walk rests on: whatever order the
   points arrive in, a task's durations rise with the column index. *)
let prop_task_make_sorts_durations =
  QCheck.Test.make ~count:200
    ~name:"task make sorts shuffled points by duration"
    QCheck.(pair (list_of_size Gen.(int_range 1 6) (float_range 0.1 50.0)) int)
    (fun (durations, seed) ->
      (* currents fall as durations rise: a valid trade-off curve *)
      let points =
        List.map
          (fun duration ->
            { Task.current = 1000.0 /. duration; duration; voltage = 1.0 })
          durations
      in
      let shuffled =
        let st = Random.State.make [| seed |] in
        List.map snd
          (List.sort compare
             (List.map (fun p -> (Random.State.bits st, p)) points))
      in
      let t = Task.make ~id:0 ~name:"T" shuffled in
      let rec rising j =
        j >= Task.num_points t
        || ((Task.point t j).Task.duration
            >= (Task.point t (j - 1)).Task.duration
           && rising (j + 1))
      in
      rising 1)

let prop_merge_preserves_charge =
  QCheck.Test.make ~count:100 ~name:"chain merging preserves per-column charge"
    gen_graph (fun g ->
      let info = Transform.merge_chains g in
      let m = Graph.num_points g in
      let column_charge graph j =
        Batsched_numeric.Kahan.sum_list
          (List.map (fun t -> Task.charge t j) (Graph.tasks graph))
      in
      List.for_all
        (fun j ->
          Float.abs (column_charge g j -. column_charge info.Transform.graph j)
          < 1e-6)
        (List.init m Fun.id))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_generated_graphs_linearizable;
      prop_is_topological_matches_oracle;
      prop_list_schedule_topological;
      prop_textio_roundtrip;
      prop_descendants_contains_self;
      prop_column_times_monotone;
      prop_textio_fuzz_no_crash;
      prop_tgff_fuzz_no_crash;
      prop_merge_preserves_charge;
      prop_task_make_sorts_durations ]

let () =
  Alcotest.run "taskgraph"
    [ ( "task",
        [ Alcotest.test_case "sorts points" `Quick test_task_sorts_points;
          Alcotest.test_case "rejects tradeoff violation" `Quick test_task_rejects_tradeoff_violation;
          Alcotest.test_case "rejects empty" `Quick test_task_rejects_empty;
          Alcotest.test_case "rejects nonpositive" `Quick test_task_rejects_nonpositive;
          Alcotest.test_case "energy and charge" `Quick test_task_energy_and_charge;
          Alcotest.test_case "current bounds" `Quick test_task_current_bounds;
          Alcotest.test_case "point out of range" `Quick test_task_point_out_of_range;
          Alcotest.test_case "voltage mismatch" `Quick test_task_voltage_mismatch ] );
      ( "graph",
        [ Alcotest.test_case "accessors" `Quick test_graph_basic_accessors;
          Alcotest.test_case "rejects cycle" `Quick test_graph_rejects_cycle;
          Alcotest.test_case "rejects self loop" `Quick test_graph_rejects_self_loop;
          Alcotest.test_case "rejects mixed point counts" `Quick test_graph_rejects_mixed_point_counts;
          Alcotest.test_case "rejects duplicate ids" `Quick test_graph_rejects_duplicate_ids;
          Alcotest.test_case "collapses duplicate edges" `Quick test_graph_collapses_duplicate_edges;
          Alcotest.test_case "map tasks" `Quick test_graph_map_tasks_preserves_structure ] );
      ( "analysis",
        [ Alcotest.test_case "accepts valid orders" `Quick test_topological_accepts_valid;
          Alcotest.test_case "rejects invalid orders" `Quick test_topological_rejects_invalid;
          Alcotest.test_case "list schedule weight" `Quick test_list_schedule_respects_weight;
          Alcotest.test_case "tie-break low id" `Quick test_list_schedule_tie_breaks_low_id;
          Alcotest.test_case "weighs each task once" `Quick test_list_schedule_weighs_each_task_once;
          Alcotest.test_case "all orders diamond" `Quick test_all_topological_orders_diamond;
          Alcotest.test_case "count orders chain" `Quick test_count_topological_orders_chain;
          Alcotest.test_case "descendants" `Quick test_descendants;
          Alcotest.test_case "column time" `Quick test_column_time;
          Alcotest.test_case "serial bounds" `Quick test_serial_time_bounds;
          Alcotest.test_case "current range" `Quick test_current_range;
          Alcotest.test_case "energy bounds" `Quick test_energy_bounds;
          Alcotest.test_case "energy vector" `Quick test_energy_vector_order ] );
      ( "designpoints",
        [ Alcotest.test_case "cube law matches G2" `Quick test_cube_law_matches_g2;
          Alcotest.test_case "cube law monotone" `Quick test_cube_law_monotone;
          Alcotest.test_case "linear law endpoints" `Quick test_linear_duration_law_endpoints;
          Alcotest.test_case "validation" `Quick test_law_validation ] );
      ( "generators",
        [ Alcotest.test_case "chain" `Quick test_generator_chain_structure;
          Alcotest.test_case "fork-join" `Quick test_generator_fork_join_structure;
          Alcotest.test_case "layered connected" `Quick test_generator_layered_connected;
          Alcotest.test_case "series-parallel valid" `Quick test_generator_series_parallel_valid;
          Alcotest.test_case "random dag extremes" `Quick test_generator_random_dag_edge_prob_extremes;
          Alcotest.test_case "determinism" `Quick test_generator_determinism;
          Alcotest.test_case "feasible deadline" `Quick test_feasible_deadline_bounds ] );
      ( "instances",
        [ Alcotest.test_case "G3 shape" `Quick test_g3_shape;
          Alcotest.test_case "G3 bounds bracket deadlines" `Quick test_g3_serial_bounds_bracket_deadlines;
          Alcotest.test_case "G3 dependences" `Quick test_g3_fork_join_dependences;
          Alcotest.test_case "G2 shape" `Quick test_g2_shape;
          Alcotest.test_case "G2 cube-law consistency" `Quick test_g2_cube_law_consistency ] );
      ( "textio",
        [ Alcotest.test_case "roundtrip instances" `Quick test_textio_roundtrip_instances;
          Alcotest.test_case "parses minimal" `Quick test_textio_parses_minimal;
          Alcotest.test_case "comments and blanks" `Quick test_textio_comments_and_blanks;
          Alcotest.test_case "line numbers" `Quick test_textio_reports_line_numbers;
          Alcotest.test_case "rejects bad point" `Quick test_textio_rejects_bad_point;
          Alcotest.test_case "rejects duplicate task" `Quick test_textio_rejects_duplicate_task;
          Alcotest.test_case "dot output" `Quick test_textio_dot_mentions_all_tasks ] );
      ( "transform",
        [ Alcotest.test_case "reduction removes shortcut" `Quick test_reduction_removes_shortcut;
          Alcotest.test_case "reduction preserves reachability" `Quick test_reduction_preserves_reachability;
          Alcotest.test_case "reverse flips edges" `Quick test_reverse_flips_edges;
          Alcotest.test_case "merge collapses pipeline" `Quick test_merge_collapses_pipeline;
          Alcotest.test_case "merge preserves charge" `Quick test_merge_preserves_column_charge;
          Alcotest.test_case "merge keeps parallel structure" `Quick test_merge_keeps_parallel_structure;
          Alcotest.test_case "expand sequence" `Quick test_merge_expand_sequence;
          Alcotest.test_case "merge G3" `Quick test_merge_g3_structure ] );
      ( "tgff",
        [ Alcotest.test_case "parses sample" `Quick test_tgff_parses_sample;
          Alcotest.test_case "roundtrips instances" `Quick test_tgff_roundtrip_instances;
          Alcotest.test_case "missing type errors" `Quick test_tgff_missing_type_errors;
          Alcotest.test_case "bad row line number" `Quick test_tgff_bad_row_line_number;
          Alcotest.test_case "no blocks errors" `Quick test_tgff_no_blocks_errors;
          Alcotest.test_case "second graph ignored" `Quick test_tgff_second_graph_ignored ] );
      ("properties", qcheck_tests) ]
