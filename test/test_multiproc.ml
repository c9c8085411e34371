(* Tests for the multiprocessor substrate: profile superposition,
   multi-PE schedules and the three heuristics. *)

open Batsched_taskgraph
open Batsched_sched
open Batsched_battery
open Batsched_multiproc

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

let model = Rakhmatov.model ()

let diamond () =
  let t id pairs = Task.of_pairs ~id ~name:(Printf.sprintf "T%d" (id + 1)) pairs in
  Graph.make ~label:"diamond" ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]
    [ t 0 [ (400.0, 1.0); (200.0, 2.0); (50.0, 4.0) ];
      t 1 [ (600.0, 2.0); (300.0, 4.0); (80.0, 8.0) ];
      t 2 [ (500.0, 1.0); (250.0, 2.0); (60.0, 4.0) ];
      t 3 [ (450.0, 3.0); (220.0, 6.0); (70.0, 12.0) ] ]

(* --- Profile.superpose --- *)

let test_superpose_disjoint () =
  let a = Profile.of_intervals [ (0.0, 2.0, 100.0) ] in
  let b = Profile.of_intervals [ (5.0, 2.0, 200.0) ] in
  let s = Profile.superpose [ a; b ] in
  Alcotest.(check int) "two segments" 2 (List.length (Profile.intervals s));
  check_float "charge preserved"
    (Profile.total_charge a +. Profile.total_charge b)
    (Profile.total_charge s)

let test_superpose_overlap_adds () =
  let a = Profile.of_intervals [ (0.0, 4.0, 100.0) ] in
  let b = Profile.of_intervals [ (2.0, 4.0, 200.0) ] in
  let s = Profile.superpose [ a; b ] in
  check_float "peak adds" 300.0 (Profile.peak_current s);
  check_float "charge preserved" (400.0 +. 800.0) (Profile.total_charge s);
  check_float "length" 6.0 (Profile.length s)

let test_superpose_identical () =
  let a = Profile.constant ~current:100.0 ~duration:3.0 in
  let s = Profile.superpose [ a; a; a ] in
  Alcotest.(check int) "one segment" 1 (List.length (Profile.intervals s));
  check_float "tripled" 300.0 (Profile.peak_current s)

let test_superpose_empty () =
  check_float "empty" 0.0 (Profile.length (Profile.superpose []));
  check_float "only empties" 0.0
    (Profile.length (Profile.superpose [ Profile.empty; Profile.empty ]))

let test_superpose_sigma_exceeds_sequential ()=
  (* same work concurrently stresses the battery more than serially *)
  let a = Profile.constant ~current:400.0 ~duration:10.0 in
  let b = Profile.constant ~current:400.0 ~duration:10.0 in
  let parallel = Profile.superpose [ a; b ] in
  let serial = Profile.sequential [ (400.0, 10.0); (400.0, 10.0) ] in
  Alcotest.(check bool) "rate capacity punishes concurrency" true
    (Model.sigma_end model parallel > Model.sigma_end model serial)

(* --- Mschedule --- *)

let test_mschedule_list_schedule_valid () =
  let g = diamond () in
  let sched =
    Mschedule.list_schedule g ~pes:(Mschedule.Pe.uniform 2)
      ~assignment:(Assignment.all_fastest g)
      ~priority:(fun v -> float_of_int (-v))
  in
  (* structural validation happens in make; rebuild through it *)
  let rebuilt =
    Mschedule.make g ~pes:(Mschedule.Pe.uniform 2)
      (List.init (Graph.num_tasks g) (fun i -> Mschedule.placement sched i))
  in
  Alcotest.(check bool) "valid" true (Mschedule.makespan g rebuilt > 0.0)

let test_mschedule_parallel_beats_serial_makespan () =
  let g = diamond () in
  let ms pes =
    Mschedule.makespan g
      (Mschedule.list_schedule g ~pes:(Mschedule.Pe.uniform pes)
         ~assignment:(Assignment.all_fastest g)
         ~priority:(fun _ -> 0.0))
  in
  (* diamond at fastest: serial 7; two PEs overlap T2/T3: 1+2+3 = 6 *)
  check_float "serial" 7.0 (ms 1);
  check_float "parallel" 6.0 (ms 2)

let test_mschedule_rejects_overlap () =
  let g = diamond () in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Mschedule.make: overlapping tasks on one PE")
    (fun () ->
      ignore
        (Mschedule.make g ~pes:(Mschedule.Pe.uniform 1)
           [ { Mschedule.pe = 0; column = 0; start = 0.0 };
             { Mschedule.pe = 0; column = 0; start = 0.5 };
             { Mschedule.pe = 0; column = 0; start = 3.0 };
             { Mschedule.pe = 0; column = 0; start = 4.0 } ]))

let test_mschedule_rejects_dependence_violation () =
  let g = diamond () in
  Alcotest.check_raises "dependence"
    (Invalid_argument "Mschedule.make: dependence violated") (fun () ->
      ignore
        (Mschedule.make g ~pes:(Mschedule.Pe.uniform 2)
           [ { Mschedule.pe = 0; column = 0; start = 0.0 };
             { Mschedule.pe = 1; column = 0; start = 0.0 };
             { Mschedule.pe = 0; column = 0; start = 1.0 };
             { Mschedule.pe = 1; column = 0; start = 3.0 } ]))

let test_mschedule_profile_charge () =
  let g = diamond () in
  let sched =
    Mschedule.list_schedule g ~pes:(Mschedule.Pe.uniform 2)
      ~assignment:(Assignment.all_fastest g)
      ~priority:(fun _ -> 0.0)
  in
  let p = Mschedule.to_profile g sched in
  check_close 1e-6 "charge preserved"
    (Assignment.total_charge g (Assignment.all_fastest g))
    (Profile.total_charge p)

let test_mschedule_single_pe_matches_sequential () =
  (* on one PE the multiproc machinery degenerates to the sequential
     schedule: same makespan, same sigma *)
  let g = diamond () in
  let a = Assignment.all_fastest g in
  let msched =
    Mschedule.list_schedule g ~pes:(Mschedule.Pe.uniform 1) ~assignment:a
      ~priority:(fun v -> float_of_int (Graph.num_tasks g - v))
  in
  let seq = Schedule.make g ~sequence:[ 0; 1; 2; 3 ] ~assignment:a in
  check_close 1e-9 "makespan" (Schedule.finish_time g seq)
    (Mschedule.makespan g msched);
  check_close 1e-6 "sigma"
    (Schedule.battery_cost ~model g seq)
    (Mschedule.battery_cost ~model g msched)

(* --- heterogeneous PEs --- *)

let test_pe_big_little_composition () =
  let pes = Mschedule.Pe.big_little ~big:1 ~little:2 in
  Alcotest.(check int) "three cores" 3 (Array.length pes);
  check_float "big speed" 1.0 pes.(0).Mschedule.Pe.speed;
  check_float "little speed" 0.6 pes.(1).Mschedule.Pe.speed;
  check_float "little scale" 0.35 pes.(2).Mschedule.Pe.current_scale

let test_pe_speed_stretches_duration () =
  let g = diamond () in
  let pes = [| { Mschedule.Pe.speed = 0.5; current_scale = 1.0 } |] in
  let sched =
    Mschedule.list_schedule g ~pes ~assignment:(Assignment.all_fastest g)
      ~priority:(fun _ -> 0.0)
  in
  (* serial fastest takes 7 at speed 1, so 14 at speed 0.5 *)
  check_close 1e-9 "doubled" 14.0 (Mschedule.makespan g sched)

let test_pe_current_scale_cuts_sigma () =
  let g = diamond () in
  let run scale =
    let pes = [| { Mschedule.Pe.speed = 1.0; current_scale = scale } |] in
    Mschedule.battery_cost ~model g
      (Mschedule.list_schedule g ~pes ~assignment:(Assignment.all_fastest g)
         ~priority:(fun _ -> 0.0))
  in
  Alcotest.(check bool) "cheaper core" true (run 0.35 < run 1.0)

let test_pe_little_core_attracts_when_time_allows () =
  (* with one big and one little core and lots of slack, the
     battery-aware heuristic still produces a feasible schedule whose
     sigma beats the big-core-only latency schedule *)
  let g = Instances.g3 in
  let pes = Mschedule.Pe.big_little ~big:1 ~little:1 in
  let aware = Mheuristics.battery_aware ~model g ~pes ~deadline:230.0 in
  let fast_big =
    Mheuristics.makespan_fastest g ~pes:(Mschedule.Pe.uniform 1)
  in
  Alcotest.(check bool) "fits" true (Mschedule.makespan g aware <= 230.0 +. 1e-9);
  Alcotest.(check bool) "beats hot single core" true
    (Mschedule.battery_cost ~model g aware
     < Mschedule.battery_cost ~model g fast_big)

(* --- Mheuristics --- *)

let test_heuristics_feasibility () =
  let g = Instances.g3 in
  List.iter
    (fun num_pes ->
      List.iter
        (fun deadline ->
          let pes = Mschedule.Pe.uniform num_pes in
          let sched = Mheuristics.slack_downscale g ~pes ~deadline in
          Alcotest.(check bool) "fits" true
            (Mschedule.makespan g sched <= deadline +. 1e-9);
          let aware = Mheuristics.battery_aware ~model g ~pes ~deadline in
          Alcotest.(check bool) "aware fits" true
            (Mschedule.makespan g aware <= deadline +. 1e-9))
        [ 100.0; 230.0 ])
    [ 1; 2; 3 ]

let test_heuristics_battery_aware_no_worse () =
  let g = Instances.g3 in
  List.iter
    (fun num_pes ->
      let pes = Mschedule.Pe.uniform num_pes in
      let down = Mheuristics.slack_downscale g ~pes ~deadline:150.0 in
      let aware = Mheuristics.battery_aware ~model g ~pes ~deadline:150.0 in
      Alcotest.(check bool) "no worse" true
        (Mschedule.battery_cost ~model g aware
         <= Mschedule.battery_cost ~model g down +. 1e-6))
    [ 1; 2 ]

let test_heuristics_infeasible () =
  let g = diamond () in
  Alcotest.check_raises "infeasible" Mheuristics.Infeasible (fun () ->
      ignore
        (Mheuristics.slack_downscale g ~pes:(Mschedule.Pe.uniform 2)
           ~deadline:3.0))

let test_heuristics_parallel_slack_pays () =
  (* with 2 PEs and the serial-fastest time as deadline, the downscaler
     finds strictly cheaper schedules than 1 PE can *)
  let g = Instances.g3 in
  let deadline = 100.0 in
  let sigma n =
    Mschedule.battery_cost ~model g
      (Mheuristics.slack_downscale g ~pes:(Mschedule.Pe.uniform n) ~deadline)
  in
  Alcotest.(check bool) "two PEs cheaper" true (sigma 2 < sigma 1)

(* --- qcheck properties --- *)

let gen_case =
  QCheck.(map
            (fun (seed, npes) ->
              let rng = Batsched_numeric.Rng.create seed in
              let spec =
                { Generators.default_spec with Generators.num_points = 3 }
              in
              let g = Generators.fork_join ~rng ~spec ~widths:[ 3; 2 ] in
              (g, 1 + npes, seed))
            (pair (int_bound 10_000) (int_bound 2)))

let prop_list_schedule_always_valid =
  QCheck.Test.make ~count:60
    ~name:"multiproc list schedules always validate" gen_case
    (fun (g, npes, seed) ->
      let rng = Batsched_numeric.Rng.create (seed + 1) in
      let assignment =
        Assignment.of_list g
          (List.init (Graph.num_tasks g) (fun _ ->
               Batsched_numeric.Rng.int rng (Graph.num_points g)))
      in
      let sched =
        Mschedule.list_schedule g ~pes:(Mschedule.Pe.uniform npes) ~assignment
          ~priority:(fun v -> Batsched_numeric.Rng.float rng (float_of_int (v + 1)))
      in
      (* rebuilding through make re-runs all structural validation *)
      match
        Mschedule.make g ~pes:(Mschedule.Pe.uniform npes)
          (List.init (Graph.num_tasks g) (Mschedule.placement sched))
      with
      | (_ : Mschedule.t) -> true
      | exception Invalid_argument _ -> false)

(* The once-per-task priority evaluation places every task exactly
   where the per-step oracle does: under the critical-path priority of
   [makespan_fastest] and under the subtree-current priority of
   [battery_aware]'s re-sequencing, on identical and big.LITTLE PEs.
   Tasks draw their design points from a pool of three lists, two of
   them equal, so equal priorities are common and the smaller-id
   tie-break is exercised. *)
let prop_list_schedule_matches_oracle =
  QCheck.Test.make ~count:100
    ~name:"multiproc list schedule matches the per-step oracle"
    QCheck.(pair (int_bound 1_000_000) (int_bound 2))
    (fun (seed, npes) ->
      let rng = Batsched_numeric.Rng.create seed in
      let spec = { Generators.default_spec with Generators.num_points = 3 } in
      let pool =
        [| [ (600.0, 2.0); (300.0, 4.0); (150.0, 8.0) ];
           [ (600.0, 2.0); (300.0, 4.0); (150.0, 8.0) ];
           [ (433.3, 1.5); (211.7, 3.1); (97.1, 6.2) ] |]
      in
      let g =
        Generators.random_dag ~rng ~spec
          ~n:(1 + Batsched_numeric.Rng.int rng 48)
          ~edge_prob:(Batsched_numeric.Rng.float rng 0.3)
        |> Graph.map_tasks (fun t ->
               Task.of_pairs ~id:t.Task.id ~name:t.Task.name
                 pool.(Batsched_numeric.Rng.int rng 3))
      in
      let pes =
        if Batsched_numeric.Rng.bool rng then Mschedule.Pe.uniform (1 + npes)
        else Mschedule.Pe.big_little ~big:1 ~little:(1 + npes)
      in
      let n = Graph.num_tasks g in
      let assignment =
        Assignment.of_list g
          (List.init n (fun _ ->
               Batsched_numeric.Rng.int rng (Graph.num_points g)))
      in
      let module O = Batsched_oracle.Mschedule in
      let same sched expected =
        List.for_all
          (fun i -> Mschedule.placement sched i = expected.(i))
          (List.init n Fun.id)
      in
      let fastest = Assignment.all_fastest g in
      same
        (Mheuristics.makespan_fastest g ~pes)
        (O.list_schedule g ~pes ~assignment:fastest
           ~priority:(O.downward_rank g))
      &&
      let priority = Batsched_oracle.Priorities.subtree_current g assignment in
      same
        (Mschedule.list_schedule g ~pes ~assignment ~priority)
        (O.list_schedule g ~pes ~assignment ~priority))

let prop_superpose_preserves_charge =
  QCheck.Test.make ~count:60 ~name:"superposition preserves total charge"
    QCheck.(list_of_size Gen.(int_range 1 6)
              (triple (float_range 0.0 50.0) (float_range 0.5 10.0)
                 (float_range 10.0 900.0)))
    (fun triples ->
      let profiles =
        List.map
          (fun (start, d, i) -> Profile.of_intervals [ (start, d, i) ])
          triples
      in
      let total =
        List.fold_left (fun acc p -> acc +. Profile.total_charge p) 0.0 profiles
      in
      Float.abs (Profile.total_charge (Profile.superpose profiles) -. total)
      < 1e-6)

let prop_more_pes_never_longer_makespan =
  QCheck.Test.make ~count:60 ~name:"extra PEs never lengthen the makespan"
    gen_case (fun (g, npes, _) ->
      let ms n =
        Mschedule.makespan g
          (Mheuristics.makespan_fastest g ~pes:(Mschedule.Pe.uniform n))
      in
      ms (npes + 1) <= ms npes +. 1e-9)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_list_schedule_always_valid;
      prop_list_schedule_matches_oracle;
      prop_superpose_preserves_charge;
      prop_more_pes_never_longer_makespan ]

let () =
  Alcotest.run "multiproc"
    [ ( "superpose",
        [ Alcotest.test_case "disjoint" `Quick test_superpose_disjoint;
          Alcotest.test_case "overlap adds" `Quick test_superpose_overlap_adds;
          Alcotest.test_case "identical" `Quick test_superpose_identical;
          Alcotest.test_case "empty" `Quick test_superpose_empty;
          Alcotest.test_case "concurrency costs sigma" `Quick test_superpose_sigma_exceeds_sequential ] );
      ( "mschedule",
        [ Alcotest.test_case "list schedule valid" `Quick test_mschedule_list_schedule_valid;
          Alcotest.test_case "parallel makespan" `Quick test_mschedule_parallel_beats_serial_makespan;
          Alcotest.test_case "rejects overlap" `Quick test_mschedule_rejects_overlap;
          Alcotest.test_case "rejects dependence violation" `Quick test_mschedule_rejects_dependence_violation;
          Alcotest.test_case "profile charge" `Quick test_mschedule_profile_charge;
          Alcotest.test_case "single PE degenerates" `Quick test_mschedule_single_pe_matches_sequential ] );
      ( "heterogeneous",
        [ Alcotest.test_case "big.LITTLE composition" `Quick test_pe_big_little_composition;
          Alcotest.test_case "speed stretches duration" `Quick test_pe_speed_stretches_duration;
          Alcotest.test_case "current scale cuts sigma" `Quick test_pe_current_scale_cuts_sigma;
          Alcotest.test_case "little core pays off" `Quick test_pe_little_core_attracts_when_time_allows ] );
      ( "heuristics",
        [ Alcotest.test_case "feasibility" `Quick test_heuristics_feasibility;
          Alcotest.test_case "battery-aware no worse" `Quick test_heuristics_battery_aware_no_worse;
          Alcotest.test_case "infeasible" `Quick test_heuristics_infeasible;
          Alcotest.test_case "parallel slack pays" `Quick test_heuristics_parallel_slack_pays ] );
      ("properties", qcheck_tests) ]
