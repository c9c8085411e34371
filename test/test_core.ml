(* Tests for the core algorithm: configuration, window search,
   design-point selection (incl. the paper's worked DPF example) and the
   iterative loop on the published instances. *)

open Batsched_taskgraph
open Batsched_sched

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

let diamond () =
  let t id pairs = Task.of_pairs ~id ~name:(Printf.sprintf "T%d" (id + 1)) pairs in
  Graph.make ~label:"diamond" ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]
    [ t 0 [ (400.0, 1.0); (200.0, 2.0); (50.0, 4.0) ];
      t 1 [ (600.0, 2.0); (300.0, 4.0); (80.0, 8.0) ];
      t 2 [ (500.0, 1.0); (250.0, 2.0); (60.0, 4.0) ];
      t 3 [ (450.0, 3.0); (220.0, 6.0); (70.0, 12.0) ] ]

(* --- Config --- *)

let test_config_defaults () =
  let cfg = Batsched.Config.make ~deadline:10.0 () in
  Alcotest.(check string) "model" "rakhmatov" cfg.Batsched.Config.model.Batsched_battery.Model.name;
  check_float "sr weight" 1.0 cfg.Batsched.Config.weights.Batsched.Config.sr

let test_config_validation () =
  Alcotest.check_raises "deadline"
    (Invalid_argument "Config.make: deadline must be positive") (fun () ->
      ignore (Batsched.Config.make ~deadline:0.0 ()));
  Alcotest.check_raises "iterations"
    (Invalid_argument "Config.make: max_iterations < 1") (fun () ->
      ignore (Batsched.Config.make ~deadline:1.0 ~max_iterations:0 ()))

(* --- Window --- *)

let test_window_initial_start_full_slack () =
  (* deadline above all-slowest at column m-2: start = m-2 *)
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:30.0 () in
  Alcotest.(check int) "narrowest" 1 (Batsched.Window.initial_window_start cfg g)

let test_window_initial_start_tight () =
  (* deadline only meetable with the fastest column: start = 0 *)
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:7.5 () in
  Alcotest.(check int) "forced wide" 0 (Batsched.Window.initial_window_start cfg g)

let test_window_unmeetable_raises () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:6.0 () in
  Alcotest.check_raises "unmeetable" Batsched.Config.Deadline_unmeetable
    (fun () -> ignore (Batsched.Window.initial_window_start cfg g))

let test_window_evaluate_sweeps_down_to_zero () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:30.0 () in
  let seq = Analysis.any_topological_order g in
  let w = Batsched.Window.evaluate cfg g ~sequence:seq in
  let starts =
    List.map (fun (r : Batsched.Window.window_result) -> r.window_start)
      w.Batsched.Window.per_window
  in
  Alcotest.(check (list int)) "narrow to wide" [ 1; 0 ] starts

let test_window_best_is_min_sigma () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:20.0 () in
  let seq = Analysis.any_topological_order g in
  let w = Batsched.Window.evaluate cfg g ~sequence:seq in
  List.iter
    (fun (r : Batsched.Window.window_result) ->
      Alcotest.(check bool) "best <= all" true
        (w.Batsched.Window.best.Batsched.Window.sigma <= r.sigma +. 1e-9))
    w.Batsched.Window.per_window

let test_window_results_meet_deadline () =
  let g = diamond () in
  let deadline = 20.0 in
  let cfg = Batsched.Config.make ~deadline () in
  let seq = Analysis.any_topological_order g in
  let w = Batsched.Window.evaluate cfg g ~sequence:seq in
  List.iter
    (fun (r : Batsched.Window.window_result) ->
      Alcotest.(check bool) "finish <= d" true (r.finish <= deadline +. 1e-9))
    w.Batsched.Window.per_window

let test_window_mask () =
  let g = diamond () in
  Alcotest.(check (list (pair int bool))) "mask"
    [ (0, false); (1, true); (2, true) ]
    (Batsched.Window.mask g ~window_start:1)

(* --- Choose --- *)

let test_choose_last_task_lowest_power () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:30.0 () in
  let seq = [ 0; 1; 2; 3 ] in
  let a = Batsched.Choose.choose_design_points cfg g ~sequence:seq ~window_start:0 in
  Alcotest.(check int) "task 3 at m-1" 2 (Assignment.column a 3)

let test_choose_meets_deadline () =
  let g = diamond () in
  List.iter
    (fun deadline ->
      let cfg = Batsched.Config.make ~deadline () in
      let seq = [ 0; 2; 1; 3 ] in
      let ws = Batsched.Window.initial_window_start cfg g in
      let a = Batsched.Choose.choose_design_points cfg g ~sequence:seq ~window_start:ws in
      Alcotest.(check bool)
        (Printf.sprintf "meets %.1f" deadline)
        true
        (Assignment.total_time g a <= deadline +. 1e-9))
    [ 7.5; 10.0; 15.0; 20.0; 28.0 ]

let test_choose_loose_deadline_all_lowest () =
  (* with unlimited slack every task can sit at the lowest-power point *)
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:1000.0 () in
  let a =
    Batsched.Choose.choose_design_points cfg g ~sequence:[ 0; 1; 2; 3 ]
      ~window_start:0
  in
  for i = 0 to 3 do
    Alcotest.(check int) "lowest power" 2 (Assignment.column a i)
  done

let test_choose_respects_window () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:1000.0 () in
  let a =
    Batsched.Choose.choose_design_points cfg g ~sequence:[ 0; 1; 2; 3 ]
      ~window_start:1
  in
  for i = 0 to 3 do
    Alcotest.(check bool) "inside window" true (Assignment.column a i >= 1)
  done

let test_choose_rejects_bad_sequence () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:20.0 () in
  Alcotest.check_raises "invalid"
    (Invalid_argument "Choose.choose_design_points: invalid sequence")
    (fun () ->
      ignore
        (Batsched.Choose.choose_design_points cfg g ~sequence:[ 3; 2; 1; 0 ]
           ~window_start:0))

let test_calculate_dpf_feasible_state () =
  (* tagged task at position 1; suffix fixed at lowest power; deadline
     huge -> no upgrades needed, DPF from the parked prefix (all at the
     lowest-power column -> weight 0 -> DPF 0) *)
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:1000.0 () in
  let seq = [| 0; 1; 2; 3 |] in
  let a = Assignment.all_lowest_power g in
  let r =
    Batsched.Choose.calculate_dpf cfg g ~sequence:seq ~assignment:a
      ~tagged_pos:1 ~window_start:0
  in
  check_float "dpf" 0.0 r.Batsched.Choose.dpf;
  Alcotest.(check bool) "enr in unit" true
    (r.Batsched.Choose.enr >= 0.0 && r.Batsched.Choose.enr <= 1.0)

let test_calculate_dpf_upgrades_low_energy_first () =
  (* force upgrades: deadline below the all-lowest total (26) but above
     what one upgrade of the cheapest free task achieves *)
  let g = diamond () in
  (* energy vector: avg energies: t0 333.3, t1 1013.3, t2 413.3, t3 1170
     -> order [0;2;1;3].  Tagged pos 2 (task 2 in seq [0;1;2;3]);
     free = {0, 1}; first free in energy order is 0. *)
  let cfg = Batsched.Config.make ~deadline:24.5 () in
  let seq = [| 0; 1; 2; 3 |] in
  (* suffix: task 3 fixed at lowest (12), tagged task 2 at lowest (4),
     free 0,1 parked lowest (4 + 8) -> total 28 > 24.5; upgrading task 0
     (cheapest) to column 1 saves 2 -> 26 > 24.5; then to column 0 saves
     1 more -> 25 > 24.5; then task 0 fixed, upgrade task 1 to column 1
     saves 4 -> 21 <= 24.5. *)
  let a = Assignment.all_lowest_power g in
  let r =
    Batsched.Choose.calculate_dpf cfg g ~sequence:seq ~assignment:a
      ~tagged_pos:2 ~window_start:0
  in
  Alcotest.(check int) "task0 fully upgraded" 0
    (Assignment.column r.Batsched.Choose.hypothetical 0);
  Alcotest.(check int) "task1 one step" 1
    (Assignment.column r.Batsched.Choose.hypothetical 1);
  Alcotest.(check bool) "feasible" true (r.Batsched.Choose.dpf < Float.infinity)

let test_calculate_dpf_infeasible_is_infinite () =
  (* deadline below even the fully-upgraded prefix: dpf = infinity *)
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:10.0 () in
  let seq = [| 0; 1; 2; 3 |] in
  (* suffix task3 at lowest (12) alone already busts 10 *)
  let a = Assignment.all_lowest_power g in
  let r =
    Batsched.Choose.calculate_dpf cfg g ~sequence:seq ~assignment:a
      ~tagged_pos:2 ~window_start:0
  in
  Alcotest.(check bool) "infinite" true (r.Batsched.Choose.dpf = Float.infinity)

let test_calculate_dpf_last_task_slack_rule () =
  (* tagged_pos = 0: DPF equals the slack ratio of the complete
     assignment *)
  let g = diamond () in
  let d = 30.0 in
  let cfg = Batsched.Config.make ~deadline:d () in
  let seq = [| 0; 1; 2; 3 |] in
  let a = Assignment.all_lowest_power g in
  let r =
    Batsched.Choose.calculate_dpf cfg g ~sequence:seq ~assignment:a
      ~tagged_pos:0 ~window_start:0
  in
  let te = Assignment.total_time g a in
  check_close 1e-9 "slack rule" ((d -. te) /. d) r.Batsched.Choose.dpf

let test_calculate_dpf_rejects_unparked_prefix () =
  (* the documented precondition: every free task (positions before
     the tagged one) sits at the lowest-power column *)
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:30.0 () in
  let seq = [| 0; 1; 2; 3 |] in
  let a = Assignment.set (Assignment.all_lowest_power g) 1 0 in
  Alcotest.check_raises "unparked free task"
    (Invalid_argument
       "Choose.calculate_dpf: free task not at the lowest-power column")
    (fun () ->
      ignore
        (Batsched.Choose.calculate_dpf cfg g ~sequence:seq ~assignment:a
           ~tagged_pos:2 ~window_start:0))

(* Edge shapes of the carried completion, each against the seed
   oracle: one task (no free prefix at all), two tasks (one free task
   and no free pair), and the narrowest window (no upgrade step). *)
let choose_outcome f =
  match f () with
  | a -> Ok (Assignment.to_list a)
  | exception e -> Error (Printexc.to_string e)

let check_choose_vs_oracle name cfg g ~sequence ~window_start =
  Alcotest.(check (result (list int) string))
    name
    (choose_outcome (fun () ->
         Batsched_oracle.Choose.choose_design_points cfg g ~sequence
           ~window_start))
    (choose_outcome (fun () ->
         Batsched.Choose.choose_design_points cfg g ~sequence ~window_start))

let check_dpf_vs_oracle name cfg g ~sequence ~assignment ~tagged_pos
    ~window_start =
  let r =
    Batsched.Choose.calculate_dpf cfg g ~sequence ~assignment ~tagged_pos
      ~window_start
  in
  let r' =
    Batsched_oracle.Choose.calculate_dpf cfg g ~sequence ~assignment
      ~tagged_pos ~window_start
  in
  let close what a b =
    Alcotest.(check bool)
      (Printf.sprintf "%s %s %g vs %g" name what a b)
      true
      ((a = Float.infinity && b = Float.infinity) || Float.abs (a -. b) <= 1e-9)
  in
  close "dpf" r'.Batsched.Choose.dpf r.Batsched.Choose.dpf;
  close "enr" r'.Batsched.Choose.enr r.Batsched.Choose.enr;
  close "cif" r'.Batsched.Choose.cif r.Batsched.Choose.cif;
  Alcotest.(check (list int))
    (name ^ " hypothetical")
    (Assignment.to_list r'.Batsched.Choose.hypothetical)
    (Assignment.to_list r.Batsched.Choose.hypothetical)

let test_choose_single_task () =
  let g =
    Graph.make ~edges:[]
      [ Task.of_pairs ~id:0 ~name:"T1" [ (400.0, 1.0); (200.0, 2.0); (50.0, 4.0) ] ]
  in
  List.iter
    (fun (deadline, want) ->
      let cfg = Batsched.Config.make ~deadline () in
      for ws = 0 to 2 do
        check_choose_vs_oracle
          (Printf.sprintf "d=%g ws=%d" deadline ws)
          cfg g ~sequence:[ 0 ] ~window_start:ws
      done;
      let a =
        Batsched.Choose.choose_design_points cfg g ~sequence:[ 0 ] ~window_start:0
      in
      Alcotest.(check int) (Printf.sprintf "d=%g column" deadline) want
        (Assignment.column a 0);
      for col = 0 to 2 do
        check_dpf_vs_oracle
          (Printf.sprintf "d=%g col=%d" deadline col)
          cfg g ~sequence:[| 0 |]
          ~assignment:(Assignment.of_list g [ col ])
          ~tagged_pos:0 ~window_start:0
      done)
    [ (10.0, 2); (3.0, 1); (1.5, 0) ]

let test_choose_two_tasks () =
  (* no edge, so both orders are linearizations *)
  let g =
    Graph.make ~edges:[]
      [ Task.of_pairs ~id:0 ~name:"T1" [ (400.0, 1.0); (200.0, 2.0); (50.0, 4.0) ];
        Task.of_pairs ~id:1 ~name:"T2" [ (600.0, 2.0); (300.0, 4.0); (80.0, 8.0) ] ]
  in
  List.iter
    (fun deadline ->
      let cfg = Batsched.Config.make ~deadline () in
      List.iter
        (fun order ->
          for ws = 0 to 2 do
            let name = Printf.sprintf "d=%g ws=%d" deadline ws in
            check_choose_vs_oracle name cfg g ~sequence:order ~window_start:ws;
            let seq = Array.of_list order in
            for col = ws to 2 do
              let tagged = Assignment.of_list g [ 2; 2 ] in
              (* tagged at 0 with the other task committed at [col], and
                 tagged at 1 with the other task free *)
              check_dpf_vs_oracle (name ^ " pos0") cfg g ~sequence:seq
                ~assignment:(Assignment.set tagged seq.(1) col)
                ~tagged_pos:0 ~window_start:ws;
              check_dpf_vs_oracle (name ^ " pos1") cfg g ~sequence:seq
                ~assignment:(Assignment.set tagged seq.(1) col)
                ~tagged_pos:1 ~window_start:ws
            done
          done)
        [ [ 0; 1 ]; [ 1; 0 ] ])
    [ 3.0; 5.0; 7.0; 9.0; 12.0 ]

let test_choose_narrowest_window () =
  (* window_start = m-1 leaves no upgrade step: every feasible tagging
     has DPF 0, and an infeasible one raises like the oracle *)
  let g = diamond () in
  List.iter
    (fun deadline ->
      let cfg = Batsched.Config.make ~deadline () in
      check_choose_vs_oracle (Printf.sprintf "d=%g" deadline) cfg g
        ~sequence:[ 0; 2; 1; 3 ] ~window_start:2;
      for tagged_pos = 0 to 3 do
        check_dpf_vs_oracle
          (Printf.sprintf "d=%g pos=%d" deadline tagged_pos)
          cfg g ~sequence:[| 0; 2; 1; 3 |]
          ~assignment:(Assignment.all_lowest_power g) ~tagged_pos
          ~window_start:2
      done)
    [ 20.0; 28.0; 40.0 ];
  let cfg = Batsched.Config.make ~deadline:40.0 () in
  let r =
    Batsched.Choose.calculate_dpf cfg g ~sequence:[| 0; 2; 1; 3 |]
      ~assignment:(Assignment.all_lowest_power g) ~tagged_pos:2 ~window_start:2
  in
  check_float "dpf" 0.0 r.Batsched.Choose.dpf

(* --- Iterate on the published instances --- *)

let test_iterate_g3_shape () =
  let g = Instances.g3 in
  let cfg = Batsched.Config.make ~deadline:Instances.g3_deadline () in
  let r = Batsched.Iterate.run cfg g in
  (* monotone min-sigma, terminates within a handful of iterations *)
  let sigmas =
    List.map (fun (it : Batsched.Iterate.iteration) -> it.min_sigma) r.iterations
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (monotone sigmas);
  Alcotest.(check bool) "terminates quickly" true
    (List.length r.iterations >= 2 && List.length r.iterations <= 10);
  (* final quality: paper reports 13737 at Delta 229.8; our faithful
     reimplementation must land within 5% and meet the deadline *)
  check_close (0.05 *. 13737.0) "sigma near paper" 13737.0 r.sigma;
  Alcotest.(check bool) "meets deadline" true
    (r.finish <= Instances.g3_deadline +. 1e-9)

let test_iterate_g3_beats_first_iteration () =
  let g = Instances.g3 in
  let cfg = Batsched.Config.make ~deadline:Instances.g3_deadline () in
  let r = Batsched.Iterate.run cfg g in
  match r.iterations with
  | first :: _ :: _ ->
      Alcotest.(check bool) "improved" true (r.sigma < first.min_sigma)
  | _ -> Alcotest.fail "expected multiple iterations"

let test_iterate_g3_weighted_sequences_topological () =
  let g = Instances.g3 in
  let cfg = Batsched.Config.make ~deadline:Instances.g3_deadline () in
  let r = Batsched.Iterate.run cfg g in
  List.iter
    (fun (it : Batsched.Iterate.iteration) ->
      Alcotest.(check bool) "seq valid" true
        (Analysis.is_topological g it.sequence);
      Alcotest.(check bool) "weighted valid" true
        (Analysis.is_topological g it.weighted_sequence))
    r.iterations

let test_iterate_g3_every_iteration_usable () =
  (* the paper's selling point: each iteration yields a valid schedule
     meeting the deadline *)
  let g = Instances.g3 in
  let cfg = Batsched.Config.make ~deadline:Instances.g3_deadline () in
  let r = Batsched.Iterate.run cfg g in
  List.iter
    (fun it ->
      let s = Batsched.Iterate.schedule_of_iteration g it in
      Alcotest.(check bool) "meets deadline" true
        (Schedule.meets_deadline g s ~deadline:Instances.g3_deadline))
    r.iterations

let test_iterate_g2_all_deadlines () =
  let g = Instances.g2 in
  (* paper values: 30913 / 13751 / 7961; accept within 5% *)
  List.iter2
    (fun deadline paper ->
      let cfg = Batsched.Config.make ~deadline () in
      let r = Batsched.Iterate.run cfg g in
      check_close (0.05 *. paper)
        (Printf.sprintf "sigma at d=%.0f" deadline)
        paper r.sigma;
      Alcotest.(check bool) "meets deadline" true (r.finish <= deadline +. 1e-9))
    Instances.g2_deadlines [ 30913.0; 13751.0; 7961.0 ]

let test_iterate_sigma_decreases_with_deadline () =
  let g = Instances.g2 in
  let sigma d =
    (Batsched.Iterate.run (Batsched.Config.make ~deadline:d ()) g)
      .Batsched.Iterate.sigma
  in
  let s55 = sigma 55.0 and s75 = sigma 75.0 and s95 = sigma 95.0 in
  Alcotest.(check bool) "monotone in slack" true (s55 >= s75 && s75 >= s95)

let test_iterate_unmeetable_deadline () =
  let g = Instances.g2 in
  let cfg = Batsched.Config.make ~deadline:40.0 () in
  Alcotest.check_raises "unmeetable" Batsched.Config.Deadline_unmeetable
    (fun () -> ignore (Batsched.Iterate.run cfg g))

let test_iterate_single_task_graph () =
  let t = Task.of_pairs ~id:0 ~name:"only" [ (500.0, 2.0); (100.0, 6.0) ] in
  let g = Graph.make ~edges:[] [ t ] in
  let cfg = Batsched.Config.make ~deadline:10.0 () in
  let r = Batsched.Iterate.run cfg g in
  (* single task: fixed at the lowest-power point *)
  Alcotest.(check (list int)) "sequence" [ 0 ]
    r.Batsched.Iterate.schedule.Schedule.sequence;
  Alcotest.(check int) "lowest power" 1
    (Assignment.column r.Batsched.Iterate.schedule.Schedule.assignment 0)

let test_iterate_respects_max_iterations () =
  let g = Instances.g3 in
  let cfg =
    Batsched.Config.make ~deadline:Instances.g3_deadline ~max_iterations:1 ()
  in
  let r = Batsched.Iterate.run cfg g in
  Alcotest.(check int) "capped" 1 (List.length r.iterations)

let test_iterate_ideal_model_prefers_low_energy () =
  (* under the ideal model sigma = total charge; with a loose deadline
     the algorithm must discover the all-lowest-power assignment *)
  let g = diamond () in
  let model = Batsched_battery.Ideal.model in
  let cfg = Batsched.Config.make ~model ~deadline:1000.0 () in
  let r = Batsched.Iterate.run cfg g in
  let charge =
    Assignment.total_charge g r.Batsched.Iterate.schedule.Schedule.assignment
  in
  let minimal = Assignment.total_charge g (Assignment.all_lowest_power g) in
  check_close 1e-6 "minimal charge" minimal charge

(* --- regression pins --- *)

let test_published_points_pinned () =
  (* These pin THIS implementation's deterministic outputs (not the
     paper's — those live in test_iterate_g2_all_deadlines /
     test_iterate_g3_shape as 5% bands).  A refactor that shifts any of
     them has changed algorithmic behaviour and must update
     EXPERIMENTS.md consciously. *)
  List.iter
    (fun (g, deadline, expected) ->
      let r = Batsched.Iterate.run (Batsched.Config.make ~deadline ()) g in
      check_close 0.05
        (Printf.sprintf "%s at %.0f" (Graph.label g) deadline)
        expected r.Batsched.Iterate.sigma)
    [ (Instances.g2, 55.0, 30955.2177);
      (Instances.g2, 75.0, 13758.0765);
      (Instances.g2, 95.0, 8044.5141);
      (Instances.g3, 100.0, 57428.6781);
      (Instances.g3, 150.0, 41257.7628);
      (Instances.g3, 230.0, 14068.7027) ]

(* --- preprocessing equivalence --- *)

let test_transitive_reduction_preserves_result () =
  (* the algorithm only consumes precedence through descendants and
     ready sets, both invariant under transitive reduction, so the run
     must be bit-identical *)
  let t id pairs = Task.of_pairs ~id ~name:(Printf.sprintf "T%d" id) pairs in
  let g =
    Graph.make ~label:"redundant"
      ~edges:[ (0, 1); (1, 2); (0, 2); (2, 3); (0, 3) ]
      [ t 0 [ (400.0, 1.0); (100.0, 3.0) ];
        t 1 [ (600.0, 2.0); (150.0, 5.0) ];
        t 2 [ (500.0, 1.0); (120.0, 4.0) ];
        t 3 [ (450.0, 3.0); (110.0, 9.0) ] ]
  in
  let reduced = Transform.transitive_reduction g in
  Alcotest.(check bool) "edges dropped" true
    (Graph.num_edges reduced < Graph.num_edges g);
  let cfg = Batsched.Config.make ~deadline:15.0 () in
  let a = Batsched.Iterate.run cfg g in
  let b = Batsched.Iterate.run cfg reduced in
  check_float "same sigma" a.Batsched.Iterate.sigma b.Batsched.Iterate.sigma;
  Alcotest.(check (list int)) "same sequence"
    a.Batsched.Iterate.schedule.Schedule.sequence
    b.Batsched.Iterate.schedule.Schedule.sequence

(* --- polish --- *)

let test_polish_never_worse () =
  List.iter
    (fun (g, deadline) ->
      let cfg = Batsched.Config.make ~deadline () in
      let r = Batsched.Iterate.run cfg g in
      let p = Batsched.Polish.polish cfg g r in
      Alcotest.(check bool) "no worse" true
        (p.Batsched.Iterate.sigma <= r.Batsched.Iterate.sigma +. 1e-9);
      Alcotest.(check bool) "still feasible" true
        (p.Batsched.Iterate.finish <= deadline +. 1e-9);
      Alcotest.(check bool) "still topological" true
        (Analysis.is_topological g
           p.Batsched.Iterate.schedule.Schedule.sequence))
    [ (Instances.g2, 75.0); (Instances.g3, 230.0); (diamond (), 20.0) ]

let test_polish_improves_bad_order () =
  (* feed an anti-sorted schedule (light tasks first): local search must
     strictly improve it *)
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:30.0 () in
  let bad =
    Schedule.make g ~sequence:[ 0; 2; 1; 3 ]
      ~assignment:(Assignment.of_list g [ 2; 0; 2; 2 ])
  in
  let polished = Batsched.Polish.two_swap cfg g bad in
  Alcotest.(check bool) "strictly better or equal" true
    (Schedule.battery_cost ~model:cfg.Batsched.Config.model g polished
     <= Schedule.battery_cost ~model:cfg.Batsched.Config.model g bad +. 1e-9)

let test_polish_validation () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:30.0 () in
  let r = Batsched.Iterate.run cfg g in
  Alcotest.check_raises "rounds" (Invalid_argument "Polish.two_swap: max_rounds < 1")
    (fun () ->
      ignore (Batsched.Polish.two_swap ~max_rounds:0 cfg g r.Batsched.Iterate.schedule))

(* Delta evaluation vs the full-evaluation oracle, at pool 1 and
   pool 4: same schedule out (the 1e-9 improvement margin absorbs the
   paths' round-off difference), same sigma from the full model. *)
let test_polish_delta_matches_reference () =
  List.iter
    (fun pool ->
      List.iter
        (fun (g, deadline) ->
          let cfg = Batsched.Config.make ?pool ~deadline () in
          let r = Batsched.Iterate.run cfg g in
          let a = Batsched.Polish.polish cfg g r
          and b = Batsched_oracle.Polish.polish cfg g r in
          Alcotest.(check (list int)) "sequence"
            b.Batsched.Iterate.schedule.Schedule.sequence
            a.Batsched.Iterate.schedule.Schedule.sequence;
          Alcotest.(check (list int)) "assignment"
            (Assignment.to_list b.Batsched.Iterate.schedule.Schedule.assignment)
            (Assignment.to_list a.Batsched.Iterate.schedule.Schedule.assignment);
          check_float "sigma" b.Batsched.Iterate.sigma a.Batsched.Iterate.sigma)
        [ (Instances.g2, 75.0); (Instances.g3, 230.0); (diamond (), 20.0) ])
    [ None; Some (Batsched_numeric.Pool.create 4) ]

(* --- multistart --- *)

let test_multistart_never_worse_than_single () =
  let g = Instances.g2 in
  List.iter
    (fun deadline ->
      let cfg = Batsched.Config.make ~deadline () in
      let single = (Batsched.Iterate.run cfg g).Batsched.Iterate.sigma in
      let rng = Batsched_numeric.Rng.create 7 in
      let multi =
        (Batsched.Iterate.run_multistart ~rng ~starts:6 cfg g)
          .Batsched.Iterate.sigma
      in
      Alcotest.(check bool) "no worse" true (multi <= single +. 1e-9))
    Instances.g2_deadlines

let test_multistart_one_start_equals_run () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:20.0 () in
  let rng = Batsched_numeric.Rng.create 1 in
  check_float "identical"
    (Batsched.Iterate.run cfg g).Batsched.Iterate.sigma
    (Batsched.Iterate.run_multistart ~rng ~starts:1 cfg g).Batsched.Iterate.sigma

let test_multistart_validation () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:20.0 () in
  Alcotest.check_raises "starts" (Invalid_argument "Iterate.run_multistart: starts < 1")
    (fun () ->
      ignore
        (Batsched.Iterate.run_multistart ~rng:(Batsched_numeric.Rng.create 1)
           ~starts:0 cfg g));
  Alcotest.check_raises "screen"
    (Invalid_argument "Iterate.run_multistart: screen < starts - 1") (fun () ->
      ignore
        (Batsched.Iterate.run_multistart ~rng:(Batsched_numeric.Rng.create 1)
           ~starts:4 ~screen:2 cfg g))

let test_multistart_screen_deterministic_and_feasible () =
  let g = Instances.g2 in
  let deadline = List.hd Instances.g2_deadlines in
  let cfg = Batsched.Config.make ~deadline () in
  let run () =
    Batsched.Iterate.run_multistart
      ~rng:(Batsched_numeric.Rng.create 7)
      ~starts:3 ~screen:8 cfg g
  in
  let a = run () and b = run () in
  check_float "deterministic" a.Batsched.Iterate.sigma b.Batsched.Iterate.sigma;
  Alcotest.(check bool) "meets deadline" true
    (a.Batsched.Iterate.finish <= deadline +. 1e-9);
  (* the screen only reorders/filters the random seeds; the greedy seed
     always runs, so the screened result can never lose to single-start *)
  let single = (Batsched.Iterate.run cfg g).Batsched.Iterate.sigma in
  Alcotest.(check bool) "no worse than single" true
    (a.Batsched.Iterate.sigma <= single +. 1e-9)

let test_multistart_screen_pool_invariant () =
  (* screening ranks by (sigma, draw index) with a deterministic batch
     sweep, so the screened seed choice — and the final result — is
     bit-identical at any pool size *)
  let g = Instances.g2 in
  let run pool =
    Batsched.Iterate.run_multistart
      ~rng:(Batsched_numeric.Rng.create 11)
      ~starts:3 ~screen:10
      (Batsched.Config.make ?pool ~deadline:(List.hd Instances.g2_deadlines) ())
      g
  in
  let a = run None and b = run (Some (Batsched_numeric.Pool.create 4)) in
  Alcotest.(check (list int)) "sequence"
    a.Batsched.Iterate.schedule.Schedule.sequence
    b.Batsched.Iterate.schedule.Schedule.sequence;
  check_float "sigma" a.Batsched.Iterate.sigma b.Batsched.Iterate.sigma

let test_multistart_screen_one_start_draws_nothing () =
  (* starts = 1 skips the screen entirely: the rng is untouched, so a
     draw made afterwards matches a fresh stream *)
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:20.0 () in
  let rng = Batsched_numeric.Rng.create 3 in
  ignore (Batsched.Iterate.run_multistart ~rng ~starts:1 ~screen:5 cfg g);
  Alcotest.(check int) "rng untouched"
    (Batsched_numeric.Rng.int (Batsched_numeric.Rng.create 3) 1_000_000)
    (Batsched_numeric.Rng.int rng 1_000_000)

(* --- Idle (peak shaving) --- *)

let test_idle_peak_sigma_constant_load () =
  (* under constant load sigma is increasing, so the peak is at the
     end *)
  let model = Batsched_battery.Rakhmatov.model () in
  let p = Batsched_battery.Profile.constant ~current:400.0 ~duration:30.0 in
  check_close 1e-9 "peak at end"
    (Batsched_battery.Rakhmatov.sigma p ~at:30.0)
    (Batsched.Idle.peak_sigma model p)

let test_idle_never_raises_peak () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:20.0 () in
  let sched = (Batsched.Iterate.run cfg g).Batsched.Iterate.schedule in
  let r = Batsched.Idle.optimize cfg g sched in
  Alcotest.(check bool) "improvement nonneg" true
    (r.Batsched.Idle.improvement >= -1e-9);
  Alcotest.(check bool) "gapped <= packed" true
    (r.Batsched.Idle.peak_gapped <= r.Batsched.Idle.peak_packed +. 1e-9)

let test_idle_fits_deadline () =
  let g = diamond () in
  let deadline = 22.0 in
  let cfg = Batsched.Config.make ~deadline () in
  (* force structural slack: schedule against a tighter inner deadline *)
  let inner = Batsched.Config.make ~deadline:12.0 () in
  let sched = (Batsched.Iterate.run inner g).Batsched.Iterate.schedule in
  let r = Batsched.Idle.optimize cfg g sched in
  Alcotest.(check bool) "fits deadline" true
    (Batsched_battery.Profile.length r.Batsched.Idle.profile
     <= deadline +. 1e-6)

let test_idle_shaves_with_structural_slack () =
  (* a sprint schedule plus generous slack must benefit from rest *)
  let g = Instances.g3 in
  let cfg_inner = Batsched.Config.make ~deadline:170.0 () in
  let cfg_full = Batsched.Config.make ~deadline:230.0 () in
  let sched = (Batsched.Iterate.run cfg_inner g).Batsched.Iterate.schedule in
  let r = Batsched.Idle.optimize cfg_full g sched in
  Alcotest.(check bool) "positive shave" true
    (r.Batsched.Idle.improvement > 0.0);
  Alcotest.(check bool) "has placements" true
    (r.Batsched.Idle.placements <> [])

let test_idle_rejects_missed_deadline () =
  let g = diamond () in
  let cfg = Batsched.Config.make ~deadline:30.0 () in
  let sched = (Batsched.Iterate.run cfg g).Batsched.Iterate.schedule in
  let tight = Batsched.Config.make ~deadline:8.0 () in
  Alcotest.check_raises "missed"
    (Invalid_argument "Idle.optimize: schedule misses the deadline")
    (fun () -> ignore (Batsched.Idle.optimize tight g sched))

let test_idle_survivable_window () =
  let g = Instances.g3 in
  let cfg_inner = Batsched.Config.make ~deadline:170.0 () in
  let cfg_full = Batsched.Config.make ~deadline:230.0 () in
  let sched = (Batsched.Iterate.run cfg_inner g).Batsched.Iterate.schedule in
  let r = Batsched.Idle.optimize cfg_full g sched in
  let lo, hi = Batsched.Idle.survivable_alphas r in
  check_float "lo is gapped peak" r.Batsched.Idle.peak_gapped lo;
  check_float "hi is packed peak" r.Batsched.Idle.peak_packed hi;
  (* a battery inside the window really does die packed and survive
     gapped *)
  let alpha = 0.5 *. (lo +. hi) in
  let model = cfg_full.Batsched.Config.model in
  let packed = Schedule.to_profile g sched in
  Alcotest.(check bool) "dies packed" false
    (Batsched_battery.Lifetime.survives ~model ~alpha packed);
  Alcotest.(check bool) "survives gapped" true
    (Batsched_battery.Lifetime.survives ~model ~alpha r.Batsched.Idle.profile)

(* --- term-weight ablation plumbing --- *)

let test_knockout_weights_still_feasible () =
  let g = Instances.g2 in
  List.iter
    (fun weights ->
      let cfg = Batsched.Config.make ~weights ~deadline:55.0 () in
      let r = Batsched.Iterate.run cfg g in
      Alcotest.(check bool) "meets deadline" true (r.finish <= 55.0 +. 1e-9))
    [ { Batsched.Config.paper_weights with Batsched.Config.sr = 0.0 };
      { Batsched.Config.paper_weights with Batsched.Config.cr = 0.0 };
      { Batsched.Config.paper_weights with Batsched.Config.enr = 0.0 };
      { Batsched.Config.paper_weights with Batsched.Config.cif = 0.0 };
      { Batsched.Config.paper_weights with Batsched.Config.dpf = 0.0 } ]

(* --- qcheck properties --- *)

let gen_case =
  QCheck.(map
            (fun (seed, slack10) ->
              let rng = Batsched_numeric.Rng.create seed in
              let spec = { Generators.default_spec with Generators.num_points = 4 } in
              let g = Generators.fork_join ~rng ~spec ~widths:[ 2; 3 ] in
              let slack = 0.05 +. (0.9 *. float_of_int slack10 /. 10.0) in
              (g, Generators.feasible_deadline g ~slack))
            (pair (int_bound 10_000) (int_bound 10)))

let prop_iterate_always_feasible =
  QCheck.Test.make ~count:40
    ~name:"iterate returns a feasible schedule on random instances" gen_case
    (fun (g, deadline) ->
      let cfg = Batsched.Config.make ~deadline () in
      let r = Batsched.Iterate.run cfg g in
      Analysis.is_topological g r.Batsched.Iterate.schedule.Schedule.sequence
      && r.Batsched.Iterate.finish <= deadline +. 1e-9)

let prop_iterate_min_sigma_monotone =
  QCheck.Test.make ~count:25 ~name:"per-iteration min sigma is monotone"
    gen_case (fun (g, deadline) ->
      let cfg = Batsched.Config.make ~deadline () in
      let r = Batsched.Iterate.run cfg g in
      let rec monotone = function
        | (a : Batsched.Iterate.iteration)
          :: (b :: _ as rest) -> a.min_sigma >= b.min_sigma -. 1e-9 && monotone rest
        | _ -> true
      in
      monotone r.Batsched.Iterate.iterations)

let prop_choose_within_window =
  QCheck.Test.make ~count:40 ~name:"chosen columns always inside the window"
    gen_case (fun (g, deadline) ->
      let cfg = Batsched.Config.make ~deadline () in
      let ws = Batsched.Window.initial_window_start cfg g in
      let seq = Priorities.sequence_dec_energy g in
      let a = Batsched.Choose.choose_design_points cfg g ~sequence:seq ~window_start:ws in
      List.for_all
        (fun i -> Assignment.column a i >= ws)
        (List.init (Graph.num_tasks g) Fun.id))

(* --- incremental CalculateDPF vs the seed oracle --- *)

let test_choose_incremental_matches_reference_instances () =
  (* selection identity on every published instance, every published
     deadline, every feasible window start: the incremental evaluation
     must commit exactly the schedules the seed implementation did *)
  List.iter
    (fun (g, deadlines) ->
      List.iter
        (fun deadline ->
          let cfg = Batsched.Config.make ~deadline () in
          let seq = Priorities.sequence_dec_energy g in
          for ws = 0 to Batsched.Window.initial_window_start cfg g do
            let a =
              Batsched.Choose.choose_design_points cfg g ~sequence:seq
                ~window_start:ws
            in
            let b =
              Batsched_oracle.Choose.choose_design_points cfg g
                ~sequence:seq ~window_start:ws
            in
            Alcotest.(check (list int))
              (Printf.sprintf "%s d=%.0f ws=%d" (Graph.label g) deadline ws)
              (Assignment.to_list b) (Assignment.to_list a)
          done)
        deadlines)
    [ (Instances.g2, Instances.g2_deadlines);
      (Instances.g3, Instances.g3_deadlines) ]

let prop_choose_incremental_matches_reference =
  QCheck.Test.make ~count:500
    ~name:"incremental choose selects the reference schedule" gen_case
    (fun (g, deadline) ->
      let cfg = Batsched.Config.make ~deadline () in
      let seq = Priorities.sequence_dec_energy g in
      let top = Batsched.Window.initial_window_start cfg g in
      List.for_all
        (fun ws ->
          Assignment.equal
            (Batsched.Choose.choose_design_points cfg g ~sequence:seq
               ~window_start:ws)
            (Batsched_oracle.Choose.choose_design_points cfg g
               ~sequence:seq ~window_start:ws))
        (List.init (top + 1) Fun.id))

(* a random mid-selection state, shaped the way [choose_design_points]
   shapes them: suffix fixed at arbitrary window columns, tagged task at
   an arbitrary window column, free prefix parked at lowest power *)
let random_dpf_state rng g ~window_start ~tagged_pos seq =
  let n = Graph.num_tasks g in
  let m = Graph.num_points g in
  let cols = Array.make n (m - 1) in
  let draw () =
    window_start + Batsched_numeric.Rng.int rng (m - window_start)
  in
  for pos = tagged_pos to n - 1 do
    cols.(seq.(pos)) <- draw ()
  done;
  Assignment.of_list g (Array.to_list cols)

let prop_calculate_dpf_metrics_match =
  QCheck.Test.make ~count:200
    ~name:"calculate_dpf agrees with the reference within 1e-9"
    QCheck.(pair gen_case (int_bound 10_000))
    (fun ((g, deadline), seed) ->
      let cfg = Batsched.Config.make ~deadline () in
      let rng = Batsched_numeric.Rng.create (seed + 1) in
      let n = Graph.num_tasks g in
      let ws = Batsched.Window.initial_window_start cfg g in
      let close a b =
        (a = Float.infinity && b = Float.infinity) || Float.abs (a -. b) <= 1e-9
      in
      let agrees seq tagged_pos =
        let a = random_dpf_state rng g ~window_start:ws ~tagged_pos seq in
        let r =
          Batsched.Choose.calculate_dpf cfg g ~sequence:seq ~assignment:a
            ~tagged_pos ~window_start:ws
        in
        let r' =
          Batsched_oracle.Choose.calculate_dpf cfg g ~sequence:seq
            ~assignment:a ~tagged_pos ~window_start:ws
        in
        close r.Batsched.Choose.dpf r'.Batsched.Choose.dpf
        && close r.Batsched.Choose.enr r'.Batsched.Choose.enr
        && close r.Batsched.Choose.cif r'.Batsched.Choose.cif
        && Assignment.equal r.Batsched.Choose.hypothetical
             r'.Batsched.Choose.hypothetical
      in
      (* the energy-ordered sequence and a random linearization *)
      let by_energy = Array.of_list (Priorities.sequence_dec_energy g) in
      let random =
        Array.of_list (Batsched_baselines.Random_search.random_sequence ~rng g)
      in
      List.for_all
        (fun seq -> List.for_all (agrees seq) (List.init n Fun.id))
        [ by_energy; random ])

(* Random DAGs of 1-96 tasks built from three shared design-point
   templates, each with repeated columns: equal average energies (the
   energy order falls back to ids), zero-length upgrade steps and equal
   currents all at once, under a random linearization and a deadline
   anywhere between the all-fastest and all-slowest serial times. *)
let tie_heavy_case seed =
  let module Rng = Batsched_numeric.Rng in
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 96 and m = 2 + Rng.int rng 4 in
  let template () =
    let pts = Array.make m (float_of_int (3 + Rng.int rng 3) *. 100.0,
                            float_of_int (1 + Rng.int rng 2)) in
    for j = 1 to m - 1 do
      let c, d = pts.(j - 1) in
      pts.(j) <-
        (match Rng.int rng 3 with
         | 0 -> (c, d)
         | 1 -> (c, d +. 1.0)
         | _ -> (c *. 0.5, d +. float_of_int (1 + Rng.int rng 2)))
    done;
    Array.to_list pts
  in
  let templates = Array.init 3 (fun _ -> template ()) in
  let tasks =
    List.init n (fun id ->
        Task.of_pairs ~id ~name:(Printf.sprintf "T%d" id)
          templates.(Rng.int rng 3))
  in
  let p = 3.0 /. float_of_int n in
  let edges =
    List.concat
      (List.init n (fun j ->
           List.filter_map
             (fun i -> if Rng.float rng 1.0 < p then Some (i, j) else None)
             (List.init j Fun.id)))
  in
  let g = Graph.make ~edges tasks in
  let lo = Analysis.column_time g 0 and hi = Analysis.column_time g (m - 1) in
  let deadline = lo +. (Rng.float rng 1.0 *. (hi -. lo)) in
  (g, deadline, Batsched_baselines.Random_search.random_sequence ~rng g)

let prop_choose_tie_heavy_matches_reference =
  QCheck.Test.make ~count:150
    ~name:"choose matches the reference on tie-heavy random DAGs"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, deadline, seq = tie_heavy_case seed in
      let cfg = Batsched.Config.make ~deadline () in
      List.for_all
        (fun ws ->
          choose_outcome (fun () ->
              Batsched.Choose.choose_design_points cfg g ~sequence:seq
                ~window_start:ws)
          = choose_outcome (fun () ->
                Batsched_oracle.Choose.choose_design_points cfg g
                  ~sequence:seq ~window_start:ws))
        (List.init (Graph.num_points g) Fun.id))

(* --- parallel paths vs the sequential reference --- *)

let parallel_pool = Batsched_numeric.Pool.create 4

let same_result name (a : Batsched.Iterate.result) (b : Batsched.Iterate.result) =
  Alcotest.(check (list int))
    (name ^ " sequence") a.Batsched.Iterate.schedule.Schedule.sequence
    b.Batsched.Iterate.schedule.Schedule.sequence;
  Alcotest.(check (list int))
    (name ^ " assignment")
    (Assignment.to_list a.Batsched.Iterate.schedule.Schedule.assignment)
    (Assignment.to_list b.Batsched.Iterate.schedule.Schedule.assignment);
  Alcotest.(check bool) (name ^ " sigma bit-identical") true
    (Float.equal a.Batsched.Iterate.sigma b.Batsched.Iterate.sigma)

let test_parallel_window_evaluate_identical () =
  List.iter
    (fun (g, deadline) ->
      let seq = Priorities.sequence_dec_energy g in
      let seq_cfg = Batsched.Config.make ~deadline () in
      let par_cfg = Batsched.Config.make ~pool:parallel_pool ~deadline () in
      let a = Batsched.Window.evaluate seq_cfg g ~sequence:seq in
      let b = Batsched.Window.evaluate par_cfg g ~sequence:seq in
      let summary (w : Batsched.Window.t) =
        List.map
          (fun (r : Batsched.Window.window_result) ->
            (r.window_start, Assignment.to_list r.assignment))
          w.Batsched.Window.per_window
      in
      Alcotest.(check (list (pair int (list int)))) "per-window identical"
        (summary a) (summary b);
      Alcotest.(check bool) "best sigma bit-identical" true
        (Float.equal a.Batsched.Window.best.Batsched.Window.sigma
           b.Batsched.Window.best.Batsched.Window.sigma))
    [ (Instances.g3, 230.0); (Instances.g2, 75.0); (Instances.g2, 95.0) ]

let test_parallel_multistart_identical_instances () =
  (* acceptance gate: on all published instances the pooled multistart
     must return bit-identical schedules to the sequential path *)
  List.iter
    (fun (g, deadline) ->
      let seq_cfg = Batsched.Config.make ~deadline () in
      let par_cfg = Batsched.Config.make ~pool:parallel_pool ~deadline () in
      let run cfg =
        Batsched.Iterate.run_multistart
          ~rng:(Batsched_numeric.Rng.create 11) ~starts:6 cfg g
      in
      same_result (Graph.label g) (run seq_cfg) (run par_cfg))
    ((Instances.g3, Instances.g3_deadline)
     :: List.map (fun d -> (Instances.g2, d)) Instances.g2_deadlines)

let prop_parallel_multistart_matches_sequential =
  QCheck.Test.make ~count:25
    ~name:"parallel multistart bit-identical to sequential on random graphs"
    gen_case (fun (g, deadline) ->
      let run pool =
        Batsched.Iterate.run_multistart
          ~rng:(Batsched_numeric.Rng.create 5) ~starts:4
          (Batsched.Config.make ~pool ~deadline ())
          g
      in
      let a = run Batsched_numeric.Pool.sequential in
      let b = run parallel_pool in
      a.Batsched.Iterate.schedule.Schedule.sequence
      = b.Batsched.Iterate.schedule.Schedule.sequence
      && Assignment.equal a.Batsched.Iterate.schedule.Schedule.assignment
           b.Batsched.Iterate.schedule.Schedule.assignment
      && Float.equal a.Batsched.Iterate.sigma b.Batsched.Iterate.sigma)

(* Choose caches its per-graph tables per domain, keyed on the graph
   value: interleaving graphs on one domain — including one with the
   same shape as another but different design points — or spreading
   windows over a pool must commit exactly what a fresh domain, with an
   empty cache, commits. *)
let test_choose_table_cache () =
  let a = Instances.g3 in
  let b =
    Graph.map_tasks
      (fun t ->
        Task.make ~id:t.Task.id ~name:t.Task.name
          (Array.to_list
             (Array.map
                (fun p -> { p with Task.duration = p.Task.duration *. 1.5 })
                t.Task.points)))
      a
  in
  let c = Instances.g2 in
  let deadline g = if g == a then 230.0 else if g == b then 345.0 else 75.0 in
  let choose g =
    let cfg = Batsched.Config.make ~deadline:(deadline g) () in
    Assignment.to_list
      (Batsched.Choose.choose_design_points cfg g
         ~sequence:(Priorities.sequence_dec_energy g) ~window_start:0)
  in
  let windows pool g =
    let cfg = Batsched.Config.make ~pool ~deadline:(deadline g) () in
    List.map
      (fun (r : Batsched.Window.window_result) ->
        (r.window_start, Assignment.to_list r.assignment))
      (Batsched.Window.evaluate cfg g
         ~sequence:(Priorities.sequence_dec_energy g)).Batsched.Window.per_window
  in
  let fresh f = Domain.join (Domain.spawn f) in
  let order = [ a; b; a; c; a ] in
  List.iteri
    (fun i g ->
      Alcotest.(check (list int))
        (Printf.sprintf "choose %d" i)
        (fresh (fun () -> choose g))
        (choose g))
    order;
  List.iteri
    (fun i g ->
      Alcotest.(check (list (pair int (list int))))
        (Printf.sprintf "pooled windows %d" i)
        (fresh (fun () -> windows Batsched_numeric.Pool.sequential g))
        (windows parallel_pool g))
    order

(* Choose keeps its segment tree and prefix arrays in a per-domain
   workspace that grows on demand and is reset per call.  Calls
   interleaved over graphs of different size and design-point count, at
   every window start and at loose and tight deadlines, must each equal
   a call on a fresh domain (an empty workspace) and the oracle.  Each
   selection is followed by a [calculate_dpf] at the middle position,
   which stops with live slots in the tree, so a stale leaf or prefix
   entry left for the next, smaller call would show here. *)
let test_choose_workspace_reuse () =
  let module C = Batsched.Choose in
  let big =
    let spec = { Generators.default_spec with Generators.num_points = 6 } in
    Generators.random_dag ~rng:(Batsched_numeric.Rng.create 256) ~spec ~n:256
      ~edge_prob:(4.0 /. 256.0)
  in
  let g2 = Instances.g2 and g3 = Instances.g3 in
  (* tight deadlines too: an infeasible trial reads the whole tree *)
  let deadlines g =
    if g == g2 then [ 55.0; 75.0; 95.0 ]
    else if g == g3 then [ 100.0; 150.0; 230.0 ]
    else
      List.map (fun slack -> Generators.feasible_deadline g ~slack) [ 0.05; 0.6 ]
  in
  (* selection, then CalculateDPF for the middle task with the
     selection as the fixed suffix and the prefix parked *)
  let run choose dpf g cfg ~ws =
    let sequence = Priorities.sequence_dec_energy g in
    match choose cfg g ~sequence ~window_start:ws with
    | exception e -> (Error (Printexc.to_string e), None)
    | a ->
        let seq = Array.of_list sequence in
        let n = Array.length seq and lowest = Graph.num_points g - 1 in
        let tagged_pos = n / 2 in
        let pos_of = Array.make n 0 in
        Array.iteri (fun p t -> pos_of.(t) <- p) seq;
        let parked =
          Assignment.init g (fun t ->
              if pos_of.(t) < tagged_pos then lowest else Assignment.column a t)
        in
        let r : C.dpf_result =
          dpf cfg g ~sequence:seq ~assignment:parked ~tagged_pos ~window_start:ws
        in
        ( Ok (Assignment.to_list a),
          Some (r.C.enr, r.C.cif, r.C.dpf, Assignment.to_list r.C.hypothetical) )
  in
  let prod = run C.choose_design_points C.calculate_dpf in
  let oracle =
    run Batsched_oracle.Choose.choose_design_points
      Batsched_oracle.Choose.calculate_dpf
  in
  let fresh f = Domain.join (Domain.spawn f) in
  let bits = Int64.bits_of_float in
  List.iteri
    (fun i g ->
      List.iter
        (fun deadline ->
          let cfg = Batsched.Config.make ~deadline () in
          for ws = 0 to Graph.num_points g - 1 do
            let name =
              Printf.sprintf "call %d (%s) d %g ws %d" i (Graph.label g) deadline ws
            in
            let sel, dpf = prod g cfg ~ws in
            let sel_f, dpf_f = fresh (fun () -> prod g cfg ~ws) in
            let sel_o, dpf_o = oracle g cfg ~ws in
            let result = Alcotest.(result (list int) string) in
            Alcotest.check result (name ^ " fresh domain") sel_f sel;
            Alcotest.check result (name ^ " oracle") sel_o sel;
            match (dpf, dpf_f, dpf_o) with
            | None, None, None -> ()
            | Some (e, c, d, h), Some (ef, cf, df, hf), Some (eo, co, d_o, ho) ->
                Alcotest.(check (list int64)) (name ^ " dpf fresh domain")
                  [ bits ef; bits cf; bits df ] [ bits e; bits c; bits d ];
                Alcotest.(check (list int)) (name ^ " hypothetical fresh domain") hf h;
                check_float (name ^ " enr oracle") eo e;
                check_float (name ^ " cif oracle") co c;
                Alcotest.(check bool) (name ^ " dpf oracle") true
                  (d = d_o || Float.abs (d -. d_o) <= 1e-9);
                Alcotest.(check (list int)) (name ^ " hypothetical oracle") ho h
            | _ -> Alcotest.fail (name ^ ": selection outcomes differ")
          done)
        (deadlines g))
    [ big; g2; g3; big; g3; g2; big ];
  (* the sweep fans windows out over pool domains, each with its own
     workspace: pools of 1 and 4 must agree bit for bit *)
  List.iter
    (fun g ->
      let sweep pool =
        let cfg =
          Batsched.Config.make ~pool ~deadline:(List.nth (deadlines g) 1) ()
        in
        List.map
          (fun (r : Batsched.Window.window_result) ->
            ( (r.window_start, Assignment.to_list r.assignment),
              (bits r.sigma, bits r.finish) ))
          (Batsched.Window.evaluate cfg g
             ~sequence:(Priorities.sequence_dec_energy g)).Batsched.Window.per_window
      in
      Alcotest.(check (list (pair (pair int (list int)) (pair int64 int64))))
        (Graph.label g ^ " pools 1 and 4")
        (sweep Batsched_numeric.Pool.sequential)
        (sweep parallel_pool))
    [ big; g2; g3 ]

(* The paper loop's deterministic Choose work on the published
   instances.  [dpf_steps] counts the steps a forward walk from the
   previous trial's completion would apply, so a changed feasibility
   decision anywhere moves it. *)
let test_choose_counters_pinned () =
  let module Probe = Batsched_numeric.Probe in
  List.iter
    (fun (g, deadline, calls, steps) ->
      let before = Probe.totals () in
      ignore (Batsched.Iterate.run (Batsched.Config.make ~deadline ()) g);
      let after = Probe.totals () in
      let name = Printf.sprintf "%s@%g" (Graph.label g) deadline in
      Alcotest.(check int) (name ^ " choose_calls") calls
        (after.Probe.choose_calls - before.Probe.choose_calls);
      Alcotest.(check int) (name ^ " dpf_steps") steps
        (after.Probe.dpf_steps - before.Probe.dpf_steps))
    [ (Instances.g2, 55.0, 2, 168);
      (Instances.g2, 75.0, 4, 252);
      (Instances.g2, 95.0, 6, 140);
      (Instances.g3, 100.0, 2, 728);
      (Instances.g3, 150.0, 4, 1215);
      (Instances.g3, 230.0, 12, 1229) ]

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_iterate_always_feasible;
      prop_iterate_min_sigma_monotone;
      prop_choose_within_window;
      prop_choose_incremental_matches_reference;
      prop_calculate_dpf_metrics_match;
      prop_choose_tie_heavy_matches_reference;
      prop_parallel_multistart_matches_sequential ]

let () =
  Alcotest.run "core"
    [ ( "config",
        [ Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "validation" `Quick test_config_validation ] );
      ( "window",
        [ Alcotest.test_case "initial start full slack" `Quick test_window_initial_start_full_slack;
          Alcotest.test_case "initial start tight" `Quick test_window_initial_start_tight;
          Alcotest.test_case "unmeetable raises" `Quick test_window_unmeetable_raises;
          Alcotest.test_case "sweep narrow to wide" `Quick test_window_evaluate_sweeps_down_to_zero;
          Alcotest.test_case "best is min" `Quick test_window_best_is_min_sigma;
          Alcotest.test_case "results meet deadline" `Quick test_window_results_meet_deadline;
          Alcotest.test_case "mask" `Quick test_window_mask ] );
      ( "choose",
        [ Alcotest.test_case "last task lowest power" `Quick test_choose_last_task_lowest_power;
          Alcotest.test_case "meets deadline" `Quick test_choose_meets_deadline;
          Alcotest.test_case "loose deadline all lowest" `Quick test_choose_loose_deadline_all_lowest;
          Alcotest.test_case "respects window" `Quick test_choose_respects_window;
          Alcotest.test_case "rejects bad sequence" `Quick test_choose_rejects_bad_sequence;
          Alcotest.test_case "dpf feasible state" `Quick test_calculate_dpf_feasible_state;
          Alcotest.test_case "dpf upgrades low energy first" `Quick test_calculate_dpf_upgrades_low_energy_first;
          Alcotest.test_case "dpf infeasible infinite" `Quick test_calculate_dpf_infeasible_is_infinite;
          Alcotest.test_case "dpf last-task slack rule" `Quick test_calculate_dpf_last_task_slack_rule;
          Alcotest.test_case "dpf rejects unparked prefix" `Quick test_calculate_dpf_rejects_unparked_prefix;
          Alcotest.test_case "single task" `Quick test_choose_single_task;
          Alcotest.test_case "two tasks" `Quick test_choose_two_tasks;
          Alcotest.test_case "narrowest window" `Quick test_choose_narrowest_window;
          Alcotest.test_case "table cache" `Quick test_choose_table_cache;
          Alcotest.test_case "workspace reuse" `Quick test_choose_workspace_reuse ] );
      ( "iterate",
        [ Alcotest.test_case "G3 shape" `Quick test_iterate_g3_shape;
          Alcotest.test_case "G3 beats first iteration" `Quick test_iterate_g3_beats_first_iteration;
          Alcotest.test_case "G3 sequences topological" `Quick test_iterate_g3_weighted_sequences_topological;
          Alcotest.test_case "G3 every iteration usable" `Quick test_iterate_g3_every_iteration_usable;
          Alcotest.test_case "G2 all deadlines" `Quick test_iterate_g2_all_deadlines;
          Alcotest.test_case "sigma monotone in deadline" `Quick test_iterate_sigma_decreases_with_deadline;
          Alcotest.test_case "unmeetable deadline" `Quick test_iterate_unmeetable_deadline;
          Alcotest.test_case "single task" `Quick test_iterate_single_task_graph;
          Alcotest.test_case "max iterations" `Quick test_iterate_respects_max_iterations;
          Alcotest.test_case "ideal model minimal charge" `Quick test_iterate_ideal_model_prefers_low_energy ] );
      ( "regression",
        [ Alcotest.test_case "published points pinned" `Quick test_published_points_pinned;
          Alcotest.test_case "incremental matches reference on instances" `Quick
            test_choose_incremental_matches_reference_instances;
          Alcotest.test_case "choose counters pinned" `Quick test_choose_counters_pinned ] );
      ( "preprocessing",
        [ Alcotest.test_case "reduction preserves result" `Quick test_transitive_reduction_preserves_result ] );
      ( "polish",
        [ Alcotest.test_case "never worse" `Quick test_polish_never_worse;
          Alcotest.test_case "improves bad order" `Quick test_polish_improves_bad_order;
          Alcotest.test_case "validation" `Quick test_polish_validation;
          Alcotest.test_case "delta matches reference" `Quick test_polish_delta_matches_reference ] );
      ( "multistart",
        [ Alcotest.test_case "never worse" `Quick test_multistart_never_worse_than_single;
          Alcotest.test_case "one start equals run" `Quick test_multistart_one_start_equals_run;
          Alcotest.test_case "validation" `Quick test_multistart_validation;
          Alcotest.test_case "screen deterministic, feasible" `Quick test_multistart_screen_deterministic_and_feasible;
          Alcotest.test_case "screen pool invariant" `Quick test_multistart_screen_pool_invariant;
          Alcotest.test_case "screen skipped at one start" `Quick test_multistart_screen_one_start_draws_nothing ] );
      ( "parallel",
        [ Alcotest.test_case "window evaluate identical" `Quick
            test_parallel_window_evaluate_identical;
          Alcotest.test_case "multistart identical on instances" `Quick
            test_parallel_multistart_identical_instances ] );
      ( "idle",
        [ Alcotest.test_case "peak of constant load" `Quick test_idle_peak_sigma_constant_load;
          Alcotest.test_case "never raises peak" `Quick test_idle_never_raises_peak;
          Alcotest.test_case "fits deadline" `Quick test_idle_fits_deadline;
          Alcotest.test_case "shaves with slack" `Quick test_idle_shaves_with_structural_slack;
          Alcotest.test_case "rejects missed deadline" `Quick test_idle_rejects_missed_deadline;
          Alcotest.test_case "survivable window" `Quick test_idle_survivable_window ] );
      ( "ablation",
        [ Alcotest.test_case "knockouts stay feasible" `Quick test_knockout_weights_still_feasible ] );
      ("properties", qcheck_tests) ]
