(* Tests for the battery substrate: profiles, the three models,
   lifetime estimation and the demonstration curves. *)

open Batsched_battery

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* --- Profile --- *)

let test_profile_empty () =
  check_float "length" 0.0 (Profile.length Profile.empty);
  check_float "charge" 0.0 (Profile.total_charge Profile.empty)

let test_profile_sequential_layout () =
  let p = Profile.sequential [ (100.0, 2.0); (200.0, 3.0); (50.0, 1.0) ] in
  let ivs = Profile.intervals p in
  Alcotest.(check int) "three intervals" 3 (List.length ivs);
  let starts = List.map (fun iv -> iv.Profile.start) ivs in
  Alcotest.(check (list (float 1e-9))) "back to back" [ 0.0; 2.0; 5.0 ] starts;
  check_float "length" 6.0 (Profile.length p)

let test_profile_total_charge () =
  let p = Profile.sequential [ (100.0, 2.0); (200.0, 3.0) ] in
  check_float "charge" 800.0 (Profile.total_charge p)

let test_profile_drops_zero_duration () =
  let p = Profile.sequential [ (100.0, 0.0); (200.0, 3.0) ] in
  Alcotest.(check int) "one interval" 1 (List.length (Profile.intervals p))

let test_profile_rejects_overlap () =
  Alcotest.check_raises "overlap"
    (Invalid_argument "Profile: overlapping intervals") (fun () ->
      ignore (Profile.of_intervals [ (0.0, 5.0, 10.0); (3.0, 2.0, 10.0) ]))

let test_profile_rejects_negative_current () =
  Alcotest.check_raises "negative current"
    (Invalid_argument "Profile: negative current") (fun () ->
      ignore (Profile.of_intervals [ (0.0, 1.0, -5.0) ]))

let test_profile_touching_ok () =
  let p = Profile.of_intervals [ (0.0, 2.0, 10.0); (2.0, 2.0, 20.0) ] in
  Alcotest.(check int) "two intervals" 2 (List.length (Profile.intervals p))

let test_profile_truncate_clips () =
  let p = Profile.sequential [ (100.0, 4.0) ] in
  let t = Profile.truncate p ~at:2.5 in
  check_float "clipped charge" 250.0 (Profile.total_charge t)

let test_profile_truncate_drops_later () =
  let p = Profile.sequential [ (100.0, 2.0); (200.0, 2.0) ] in
  let t = Profile.truncate p ~at:2.0 in
  Alcotest.(check int) "only first" 1 (List.length (Profile.intervals t))

let test_profile_with_idle () =
  let p = Profile.sequential [ (100.0, 2.0); (200.0, 2.0) ] in
  let q = Profile.with_idle p ~after:2.0 ~idle:5.0 in
  check_float "gap opened" 9.0 (Profile.length q);
  check_float "charge unchanged" (Profile.total_charge p) (Profile.total_charge q)

let test_profile_peak_current () =
  let p = Profile.sequential [ (100.0, 1.0); (700.0, 1.0); (300.0, 1.0) ] in
  check_float "peak" 700.0 (Profile.peak_current p)

(* --- Ideal model --- *)

let test_ideal_equals_charge () =
  let p = Profile.sequential [ (123.0, 4.5); (67.0, 2.5) ] in
  check_float "sigma = coulombs" (Profile.total_charge p)
    (Model.sigma_end Ideal.model p)

let test_ideal_truncation () =
  let p = Profile.sequential [ (100.0, 10.0) ] in
  check_float "half" 500.0 (Ideal.sigma p ~at:5.0)

(* --- Peukert model --- *)

let test_peukert_reference_current_ideal () =
  let p = Profile.constant ~current:100.0 ~duration:10.0 in
  check_close 1e-6 "reference" 1000.0
    (Peukert.sigma ~reference_current:100.0 p ~at:10.0)

let test_peukert_penalizes_high_current () =
  let hi = Profile.constant ~current:400.0 ~duration:10.0 in
  Alcotest.(check bool) "superlinear" true
    (Peukert.sigma hi ~at:10.0 > Profile.total_charge hi)

let test_peukert_rewards_low_current () =
  let lo = Profile.constant ~current:25.0 ~duration:10.0 in
  Alcotest.(check bool) "sublinear" true
    (Peukert.sigma lo ~at:10.0 < Profile.total_charge lo)

let test_peukert_exponent_one_is_ideal () =
  let p = Profile.sequential [ (300.0, 5.0); (80.0, 3.0) ] in
  check_close 1e-9 "p=1" (Profile.total_charge p)
    (Peukert.sigma ~exponent:1.0 p ~at:8.0)

let test_peukert_invalid () =
  Alcotest.check_raises "exponent < 1"
    (Invalid_argument "Peukert.sigma: exponent must be >= 1") (fun () ->
      ignore (Peukert.sigma ~exponent:0.5 Profile.empty ~at:0.0))

(* --- Rakhmatov model --- *)

let test_rv_exceeds_ideal_during_load () =
  let p = Profile.constant ~current:500.0 ~duration:30.0 in
  let sigma = Rakhmatov.sigma p ~at:30.0 in
  Alcotest.(check bool) "above coulombs" true (sigma > Profile.total_charge p)

let test_rv_recovers_at_rest () =
  let p = Profile.constant ~current:500.0 ~duration:30.0 in
  let long_after = Rakhmatov.sigma p ~at:100000.0 in
  check_close 1.0 "full recovery" (Profile.total_charge p) long_after

let test_rv_monotone_in_time_during_load () =
  let p = Profile.constant ~current:500.0 ~duration:60.0 in
  let s t = Rakhmatov.sigma p ~at:t in
  Alcotest.(check bool) "monotone" true (s 10.0 < s 30.0 && s 30.0 < s 60.0)

let test_rv_zero_at_time_zero () =
  let p = Profile.constant ~current:500.0 ~duration:60.0 in
  check_float "zero" 0.0 (Rakhmatov.sigma p ~at:0.0)

let test_rv_large_beta_is_ideal () =
  let p = Profile.sequential [ (400.0, 5.0); (100.0, 10.0) ] in
  check_close 0.5 "ideal limit" (Profile.total_charge p)
    (Rakhmatov.sigma ~beta:50.0 p ~at:15.0)

let test_rv_superposition_of_currents () =
  (* sigma is linear in current magnitudes: doubling currents doubles it *)
  let p1 = Profile.sequential [ (100.0, 5.0); (300.0, 5.0) ] in
  let p2 = Profile.sequential [ (200.0, 5.0); (600.0, 5.0) ] in
  check_close 1e-6 "linear"
    (2.0 *. Rakhmatov.sigma p1 ~at:10.0)
    (Rakhmatov.sigma p2 ~at:10.0)

let test_rv_paper_magnitude () =
  (* the G3 example's best profiles cost ~13-17k mA*min over ~230 min; a
     constant-current surrogate of the same average load must land in
     the same decade *)
  let p = Profile.constant ~current:60.0 ~duration:229.8 in
  let sigma = Rakhmatov.sigma ~beta:0.273 p ~at:229.8 in
  Alcotest.(check bool) "same decade" true (sigma > 13000.0 && sigma < 20000.0)

let test_rv_ordering_theorem_pairwise () =
  let heavy_first = Profile.sequential [ (800.0, 10.0); (100.0, 10.0) ] in
  let light_first = Profile.sequential [ (100.0, 10.0); (800.0, 10.0) ] in
  Alcotest.(check bool) "decreasing wins" true
    (Model.sigma_end (Rakhmatov.model ()) heavy_first
     < Model.sigma_end (Rakhmatov.model ()) light_first)

let test_rv_unavailable_nonnegative () =
  let p = Profile.sequential [ (500.0, 10.0); (200.0, 20.0) ] in
  Alcotest.(check bool) "nonneg" true
    (Rakhmatov.unavailable_charge p ~at:30.0 >= 0.0)

let test_rv_sigma_can_dip_after_heavy_load () =
  (* a documented non-monotonicity: once a heavy interval ends, its
     recoverable unavailable charge relaxes faster than a light
     successor accrues, so sigma dips — exactly the recovery phenomenon
     the scheduler exploits by putting heavy tasks early *)
  let p = Profile.sequential [ (550.0, 25.0); (50.0, 20.0) ] in
  let during = Rakhmatov.sigma p ~at:25.0 in
  let later = Rakhmatov.sigma p ~at:35.0 in
  Alcotest.(check bool) "dips" true (later < during)

let test_lifetime_first_crossing_on_dip () =
  (* with a dipping sigma the battery dies at the FIRST crossing even if
     sigma later falls back under alpha *)
  let model = Rakhmatov.model () in
  let p = Profile.sequential [ (550.0, 25.0); (50.0, 20.0) ] in
  let peak = Rakhmatov.sigma p ~at:25.0 in
  let at_end = Model.sigma_end model p in
  let alpha = (peak +. at_end) /. 2.0 in
  (* alpha sits between the dip and the peak: death must be reported *)
  match Lifetime.of_profile ~model ~alpha p with
  | Lifetime.Dies_at t ->
      Alcotest.(check bool) "dies before the heavy interval ends" true
        (t <= 25.0 +. 1e-3)
  | Lifetime.Survives _ -> Alcotest.fail "must report first crossing"

let test_rv_negative_time_rejected () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Rakhmatov.sigma: negative time") (fun () ->
      ignore (Rakhmatov.sigma Profile.empty ~at:(-1.0)))

(* --- KiBaM --- *)

let kp = Kibam.default_params

let test_kibam_full_state () =
  let st = Kibam.full kp in
  check_float "available" (kp.Kibam.c *. kp.Kibam.capacity) st.Kibam.available;
  check_float "total" kp.Kibam.capacity (st.Kibam.available +. st.Kibam.bound)

let test_kibam_conservation () =
  (* wells only exchange charge internally: y1 + y2 = y0 - I*t *)
  let st = Kibam.step kp (Kibam.full kp) ~current:400.0 ~duration:30.0 in
  check_close 1e-6 "conservation"
    (kp.Kibam.capacity -. (400.0 *. 30.0))
    (st.Kibam.available +. st.Kibam.bound)

let test_kibam_sigma_zero_at_start () =
  let p = Profile.constant ~current:400.0 ~duration:30.0 in
  check_close 1e-9 "zero" 0.0 (Kibam.sigma p ~at:0.0)

let test_kibam_sigma_equals_drawn_at_equilibrium () =
  (* after a long rest the wells re-equilibrate and sigma -> drawn *)
  let p = Profile.of_intervals [ (0.0, 10.0, 300.0) ] in
  let q = Profile.with_idle p ~after:10.0 ~idle:0.0 in
  ignore q;
  let sigma_late = Kibam.sigma p ~at:100000.0 in
  check_close 1.0 "full recovery" 3000.0 sigma_late

let test_kibam_rate_capacity () =
  (* under load sigma exceeds the coulomb count *)
  let p = Profile.constant ~current:800.0 ~duration:20.0 in
  Alcotest.(check bool) "apparent > drawn" true
    (Kibam.sigma p ~at:20.0 > Profile.total_charge p)

let test_kibam_recovery_between_bursts () =
  (* idle between bursts leaves more available charge at the end *)
  let packed = Profile.sequential [ (800.0, 20.0); (800.0, 20.0) ] in
  let gapped =
    Profile.of_intervals [ (0.0, 20.0, 800.0); (50.0, 20.0, 800.0) ]
  in
  let s_packed = Kibam.sigma packed ~at:40.0 in
  let s_gapped = Kibam.sigma gapped ~at:70.0 in
  Alcotest.(check bool) "recovery" true (s_gapped < s_packed)

let test_kibam_lifetime_decreases_with_load () =
  let model = Kibam.model () in
  let alpha = kp.Kibam.capacity in
  let l c = Lifetime.of_constant_current ~model ~alpha ~current:c in
  Alcotest.(check bool) "monotone" true (l 200.0 > l 400.0 && l 400.0 > l 800.0)

let test_kibam_delivers_less_at_high_rate () =
  let model = Kibam.model () in
  let alpha = kp.Kibam.capacity in
  let delivered c = c *. Lifetime.of_constant_current ~model ~alpha ~current:c in
  Alcotest.(check bool) "rate capacity on delivery" true
    (delivered 100.0 > delivered 1000.0)

let test_kibam_param_validation () =
  Alcotest.check_raises "bad c" (Invalid_argument "Kibam.make_params: c outside (0,1)")
    (fun () -> ignore (Kibam.make_params ~capacity:100.0 ~c:1.5 ~k_prime:0.1))

let test_kibam_step_validation () =
  Alcotest.check_raises "negative current"
    (Invalid_argument "Kibam.step: negative current") (fun () ->
      ignore (Kibam.step kp (Kibam.full kp) ~current:(-1.0) ~duration:1.0))

let test_kibam_zero_duration_step_identity () =
  (* a zero-length interval returns the input state unchanged —
     bit-for-bit, not merely to round-off — so degenerate intervals
     (same-column repoints, zero-duration design points) accumulate no
     drift no matter how many times they are stepped *)
  let st = Kibam.step kp (Kibam.full kp) ~current:650.0 ~duration:7.3 in
  let st' = ref st in
  for _ = 1 to 1000 do
    st' := Kibam.step kp !st' ~current:800.0 ~duration:0.0
  done;
  Alcotest.(check bool) "available bit-identical" true
    (Float.equal (!st').Kibam.available st.Kibam.available);
  Alcotest.(check bool) "bound bit-identical" true
    (Float.equal (!st').Kibam.bound st.Kibam.bound);
  (* state_at through a profile with the same load reaches the same
     place whether or not degenerate intervals are present, because
     the profile layer drops them and step ignores them *)
  let a = Kibam.state_at kp (Profile.sequential [ (650.0, 7.3) ]) ~at:7.3 in
  Alcotest.(check bool) "state_at agrees" true
    (Float.equal a.Kibam.available st.Kibam.available
    && Float.equal a.Kibam.bound st.Kibam.bound)

(* --- Lifetime --- *)

let test_lifetime_survives_light_load () =
  let model = Rakhmatov.model () in
  let p = Profile.constant ~current:10.0 ~duration:60.0 in
  match Lifetime.of_profile ~model ~alpha:Cell.itsy.Cell.alpha p with
  | Lifetime.Survives { headroom; _ } ->
      Alcotest.(check bool) "headroom positive" true (headroom > 0.0)
  | Lifetime.Dies_at _ -> Alcotest.fail "should survive"

let test_lifetime_dies_under_heavy_load () =
  let model = Rakhmatov.model () in
  let p = Profile.constant ~current:2000.0 ~duration:10000.0 in
  match Lifetime.of_profile ~model ~alpha:Cell.itsy.Cell.alpha p with
  | Lifetime.Dies_at t -> Alcotest.(check bool) "positive time" true (t > 0.0)
  | Lifetime.Survives _ -> Alcotest.fail "should die"

let test_lifetime_constant_current_consistent () =
  let model = Rakhmatov.model () in
  let alpha = Cell.itsy.Cell.alpha in
  let current = 500.0 in
  let t = Lifetime.of_constant_current ~model ~alpha ~current in
  let p = Profile.constant ~current ~duration:(2.0 *. t) in
  check_close 1.0 "sigma(T*) = alpha" alpha (model.Model.sigma p ~at:t)

let test_lifetime_decreases_with_load () =
  let model = Rakhmatov.model () in
  let alpha = Cell.itsy.Cell.alpha in
  let l c = Lifetime.of_constant_current ~model ~alpha ~current:c in
  Alcotest.(check bool) "monotone" true (l 100.0 > l 200.0 && l 200.0 > l 800.0)

let test_lifetime_ideal_model_exact () =
  let t =
    Lifetime.of_constant_current ~model:Ideal.model ~alpha:1000.0 ~current:50.0
  in
  check_close 1e-3 "alpha/I" 20.0 t

let test_lifetime_bad_alpha () =
  Alcotest.check_raises "alpha <= 0"
    (Invalid_argument "Lifetime: alpha must be positive") (fun () ->
      ignore (Lifetime.survives ~model:Ideal.model ~alpha:0.0 Profile.empty))

(* --- Diffusion PDE reference --- *)

(* coarse grid keeps these fast; tolerances account for it *)
let pde_params =
  Diffusion.make_params ~nodes:48 ~dt:0.05 ~alpha:40375.0 ~beta:0.273 ()

let test_diffusion_zero_load () =
  let p = Profile.empty in
  check_close 1e-6 "undisturbed" 0.0 (Diffusion.sigma ~params:pde_params p ~at:10.0)

let test_diffusion_conservation_at_rest () =
  (* long after the load, sigma -> drawn charge *)
  let p = Profile.constant ~current:500.0 ~duration:20.0 in
  check_close 30.0 "recovers to coulombs" 10000.0
    (Diffusion.sigma ~params:pde_params p ~at:500.0)

let test_diffusion_matches_analytic_under_load () =
  (* with a long series the analytic model must agree with the PDE *)
  let p = Profile.constant ~current:800.0 ~duration:20.0 in
  let analytic = Rakhmatov.sigma ~terms:5000 p ~at:20.0 in
  let pde = Diffusion.sigma ~params:pde_params p ~at:20.0 in
  check_close (0.005 *. analytic) "first principles" analytic pde

let test_diffusion_matches_analytic_with_recovery () =
  let p = Profile.of_intervals [ (0.0, 20.0, 800.0); (50.0, 20.0, 800.0) ] in
  let analytic = Rakhmatov.sigma ~terms:5000 p ~at:70.0 in
  let pde = Diffusion.sigma ~params:pde_params p ~at:70.0 in
  check_close (0.005 *. analytic) "with recovery" analytic pde

let test_diffusion_ten_terms_undercounts_under_load () =
  (* the documented truncation bias: 10 terms < PDE during discharge *)
  let p = Profile.constant ~current:800.0 ~duration:20.0 in
  Alcotest.(check bool) "undercounts" true
    (Rakhmatov.sigma p ~at:20.0 < Diffusion.sigma ~params:pde_params p ~at:20.0)

let test_diffusion_surface_depletes () =
  let p = Profile.constant ~current:800.0 ~duration:20.0 in
  let s0 = Diffusion.surface_density ~params:pde_params p ~at:0.0 in
  let s20 = Diffusion.surface_density ~params:pde_params p ~at:20.0 in
  check_close 1e-6 "starts full" 40375.0 s0;
  Alcotest.(check bool) "depletes" true (s20 < s0)

let test_diffusion_param_validation () =
  Alcotest.check_raises "nodes" (Invalid_argument "Diffusion.make_params: nodes < 8")
    (fun () -> ignore (Diffusion.make_params ~nodes:2 ~alpha:1.0 ~beta:1.0 ()))

(* --- Periodic --- *)

let ideal = Ideal.model

let outcome_t =
  Alcotest.testable
    (fun fmt -> function
      | Periodic.Dies n -> Format.fprintf fmt "Dies %d" n
      | Periodic.Censored n -> Format.fprintf fmt "Censored %d" n)
    ( = )

let test_periodic_ideal_matches_budget () =
  (* ideal battery: cycles = floor(alpha / charge-per-cycle), period
     irrelevant *)
  let cycle = Profile.constant ~current:100.0 ~duration:10.0 in
  (* 1000 mA*min per cycle; alpha 3500 -> dies in cycle 4, so 3 done *)
  Alcotest.check outcome_t "floor of budget" (Periodic.Dies 3)
    (Periodic.cycles_to_death ~model:ideal ~alpha:3500.0 ~period:20.0 cycle)

let test_periodic_unsustainable_first_cycle () =
  let cycle = Profile.constant ~current:100.0 ~duration:10.0 in
  match
    Periodic.cycles_to_death ~model:ideal ~alpha:500.0 ~period:20.0 cycle
  with
  | _ -> Alcotest.fail "first cycle should be fatal"
  | exception Periodic.Unsustainable sigma ->
      (* the payload is sigma at the fatal probe: the full burst's
         1000 mA*min against alpha 500 *)
      check_float "fatal sigma" 1000.0 sigma

let test_periodic_rv_rest_helps () =
  (* under RV a longer period (more recovery) never sustains fewer
     cycles, and here strictly more *)
  let model = Rakhmatov.model () in
  let cycle = Profile.constant ~current:800.0 ~duration:20.0 in
  let alpha = 62500.0 in
  let tight =
    Periodic.cycles_to_death ~max_cycles:50 ~model ~alpha ~period:20.0 cycle
  in
  let loose =
    Periodic.cycles_to_death ~max_cycles:50 ~model ~alpha ~period:120.0 cycle
  in
  Alcotest.(check bool) "rest helps" true
    (Periodic.cycles loose > Periodic.cycles tight)

let test_periodic_cycle_longer_than_period () =
  let cycle = Profile.constant ~current:100.0 ~duration:10.0 in
  Alcotest.check_raises "too long"
    (Invalid_argument "Periodic: cycle longer than the period") (fun () ->
      ignore
        (Periodic.cycles_to_death ~model:ideal ~alpha:1e6 ~period:5.0 cycle))

let test_periodic_max_cycles_cap () =
  let cycle = Profile.constant ~current:1.0 ~duration:1.0 in
  Alcotest.check outcome_t "capped" (Periodic.Censored 7)
    (Periodic.cycles_to_death ~max_cycles:7 ~model:ideal ~alpha:1e9
       ~period:2.0 cycle)

let test_periodic_min_period () =
  let model = Rakhmatov.model () in
  let cycle = Profile.constant ~current:800.0 ~duration:20.0 in
  let alpha = 62500.0 in
  let target =
    1
    + Periodic.cycles
        (Periodic.cycles_to_death ~max_cycles:50 ~model ~alpha ~period:20.0
           cycle)
  in
  (match
     Periodic.min_period_for_cycles ~max_cycles:50 ~model ~alpha cycle ~target
   with
  | Some p ->
      Alcotest.(check bool) "longer than the cycle" true (p >= 20.0);
      Alcotest.(check bool) "achieves the target" true
        (Periodic.max_sustainable_cycles ~max_cycles:50 ~model ~alpha cycle
           ~period:p ~target);
      Alcotest.(check bool) "tight: slightly less fails" true
        (p <= 20.0 +. 0.02
         || not
              (Periodic.max_sustainable_cycles ~max_cycles:50 ~model ~alpha
                 cycle ~period:(p -. 0.1) ~target))
  | None -> Alcotest.fail "a finite period should suffice")

let test_periodic_min_period_impossible () =
  (* 100 cycles of 1000 mA*min against alpha 3500 can never fit *)
  let cycle = Profile.constant ~current:100.0 ~duration:10.0 in
  Alcotest.(check bool) "impossible" true
    (Periodic.min_period_for_cycles ~model:ideal ~alpha:3500.0 cycle
       ~target:100
     = None)

let test_periodic_interp_curve () =
  let model = Rakhmatov.model () in
  let cycle = Profile.constant ~current:800.0 ~duration:20.0 in
  let curve =
    Periodic.interp_cycles ~model ~alpha:60000.0 cycle
      ~periods:[ 20.0; 60.0; 120.0 ]
  in
  let lo, hi = Batsched_numeric.Interp.domain curve in
  check_float "domain lo" 20.0 lo;
  check_float "domain hi" 120.0 hi

let test_periodic_fast_path_engages () =
  (* the scalar estimator must route decay models through the channel
     kernel; the PDE, which has no decay view, takes the counted
     quadratic reference fallback *)
  let cycle = Profile.constant ~current:100.0 ~duration:10.0 in
  let named c name =
    match List.assoc_opt name (Batsched_numeric.Probe.named_counts c) with
    | Some v -> v
    | None -> 0
  in
  let c0 = Batsched_numeric.Probe.totals () in
  ignore (Periodic.cycles_to_death ~model:ideal ~alpha:3500.0 ~period:20.0 cycle);
  ignore
    (Periodic.cycles_to_death
       ~model:(Diffusion.model ~params:(Diffusion.make_params ~nodes:8 ~dt:1.0 ~alpha:20000.0 ~beta:0.273 ()) ())
       ~alpha:20000.0 ~period:20.0 cycle);
  let c1 = Batsched_numeric.Probe.totals () in
  Alcotest.(check int) "channel device" 1
    (named c1 "periodic/channel_devices" - named c0 "periodic/channel_devices");
  Alcotest.(check int) "pde on the reference fallback" 1
    (named c1 "periodic/reference_devices"
    - named c0 "periodic/reference_devices")

let test_periodic_batch_matches_scalar () =
  (* heterogeneous population: every device's batch result must agree
     with the scalar call — same code path by construction, so the
     comparison is exact, fatal sigma included *)
  let devices =
    [| { Periodic.model = Ideal.model; alpha = 3500.0; period = 20.0;
         cycle = Profile.constant ~current:100.0 ~duration:10.0 };
       { Periodic.model = Rakhmatov.model (); alpha = 62500.0; period = 30.0;
         cycle = Profile.constant ~current:800.0 ~duration:20.0 };
       { Periodic.model = Kibam.model (); alpha = 20000.0; period = 60.0;
         cycle = Profile.sequential [ (400.0, 10.0); (150.0, 20.0) ] };
       { Periodic.model = Peukert.model (); alpha = 900.0; period = 25.0;
         cycle = Profile.constant ~current:120.0 ~duration:8.0 };
       (* first-cycle death: batch reports Dies 0 where scalar raises *)
       { Periodic.model = Ideal.model; alpha = 500.0; period = 20.0;
         cycle = Profile.constant ~current:100.0 ~duration:10.0 } |]
  in
  let results =
    Periodic.Batch.run ~max_cycles:40 ~n:(Array.length devices)
      ~device:(fun i -> devices.(i))
      ()
  in
  Array.iteri
    (fun i (r : Periodic.Batch.result) ->
      let d = devices.(i) in
      match
        Periodic.cycles_to_death ~max_cycles:40 ~model:d.Periodic.model
          ~alpha:d.Periodic.alpha ~period:d.Periodic.period d.Periodic.cycle
      with
      | outcome ->
          Alcotest.check outcome_t
            (Printf.sprintf "device %d outcome" i)
            outcome r.Periodic.Batch.outcome
      | exception Periodic.Unsustainable sigma ->
          Alcotest.check outcome_t
            (Printf.sprintf "device %d first-cycle death" i)
            (Periodic.Dies 0) r.Periodic.Batch.outcome;
          check_float
            (Printf.sprintf "device %d fatal sigma" i)
            sigma r.Periodic.Batch.fatal_sigma)
    results

(* --- Cell --- *)

let test_cell_presets () =
  check_float "itsy alpha" 40375.0 Cell.itsy.Cell.alpha;
  check_float "itsy beta" 0.273 Cell.itsy.Cell.beta;
  check_close 1e-9 "mAh" (40375.0 /. 60.0) (Cell.rated_capacity_mah Cell.itsy)

let test_cell_validation () =
  Alcotest.check_raises "bad alpha"
    (Invalid_argument "Cell.make: alpha must be positive") (fun () ->
      ignore (Cell.make ~label:"x" ~alpha:0.0 ~beta:1.0))

(* --- Curves --- *)

let test_curves_rate_capacity_shape () =
  let pts =
    Curves.rate_capacity ~cell:Cell.itsy ~currents:[ 100.0; 400.0; 1600.0 ]
  in
  match pts with
  | [ a; b; c ] ->
      Alcotest.(check bool) "falling efficiency" true
        (a.Curves.efficiency > b.Curves.efficiency
         && b.Curves.efficiency > c.Curves.efficiency);
      Alcotest.(check bool) "bounded" true
        (a.Curves.efficiency <= 1.0 && c.Curves.efficiency > 0.0)
  | _ -> Alcotest.fail "expected three points"

let test_curves_recovery_shape () =
  let pts =
    Curves.recovery ~cell:Cell.itsy ~current:800.0 ~burst:20.0
      ~idles:[ 0.0; 10.0; 60.0 ]
  in
  match pts with
  | [ zero; ten; sixty ] ->
      check_float "no idle no recovery" 0.0 zero.Curves.recovered;
      Alcotest.(check bool) "monotone recovery" true
        (ten.Curves.recovered > 0.0
         && sixty.Curves.recovered > ten.Curves.recovered)
  | _ -> Alcotest.fail "expected three points"

let test_curves_sigma_curve_monotone () =
  let model = Rakhmatov.model () in
  let p = Profile.constant ~current:300.0 ~duration:50.0 in
  let c = Curves.sigma_curve ~model p ~n:20 in
  let pts = Batsched_numeric.Interp.points c in
  let rec check = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-6 && check rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (check pts)

let test_curves_ordering_gap () =
  let tasks = [ (900.0, 5.0); (100.0, 5.0); (500.0, 5.0) ] in
  let dec, inc = Curves.ordering_gap ~cell:Cell.itsy tasks in
  Alcotest.(check bool) "decreasing no worse" true (dec <= inc)

(* --- qcheck properties --- *)

let gen_loads =
  QCheck.(
    list_of_size Gen.(int_range 1 8)
      (pair (float_range 10.0 1000.0) (float_range 0.5 30.0)))

let prop_sigma_monotone_in_time =
  (* monotonicity holds under constant load; with varying load sigma can
     dip after heavy intervals (recovery) — see the dedicated dip test *)
  QCheck.Test.make ~count:100
    ~name:"RV sigma is non-decreasing in T under constant load"
    QCheck.(pair (float_range 10.0 1000.0) (float_range 1.0 100.0))
    (fun (current, duration) ->
      let p = Profile.constant ~current ~duration in
      let s1 = Rakhmatov.sigma p ~at:(duration /. 2.0) in
      let s2 = Rakhmatov.sigma p ~at:duration in
      s1 <= s2 +. 1e-6)

let prop_sigma_at_least_ideal_at_end =
  QCheck.Test.make ~count:100
    ~name:"RV sigma at completion >= coulomb count" gen_loads (fun loads ->
      let p = Profile.sequential loads in
      Model.sigma_end (Rakhmatov.model ()) p >= Profile.total_charge p -. 1e-6)

let prop_decreasing_order_never_worse =
  QCheck.Test.make ~count:100
    ~name:"decreasing-current order never worse than increasing" gen_loads
    (fun loads ->
      let dec, inc = Curves.ordering_gap ~cell:Cell.itsy loads in
      dec <= inc +. 1e-6)

let prop_idle_never_hurts =
  QCheck.Test.make ~count:100 ~name:"inserting idle never raises sigma"
    QCheck.(pair gen_loads (float_range 0.1 60.0))
    (fun (loads, idle) ->
      QCheck.assume (List.length loads >= 2);
      let p = Profile.sequential loads in
      let last_start =
        match List.rev (Profile.intervals p) with
        | last :: _ -> last.Profile.start
        | [] -> 0.0
      in
      let q = Profile.with_idle p ~after:last_start ~idle in
      let model = Rakhmatov.model () in
      Model.sigma_end model q <= Model.sigma_end model p +. 1e-6)

let prop_sigma_matches_reference =
  (* the cached/incremental evaluator against the truncate-and-sum
     seed implementation, observed at several instants including ones
     that clip a straddling interval *)
  QCheck.Test.make ~count:200 ~name:"fast RV sigma agrees with reference"
    QCheck.(pair gen_loads (float_range 0.0 1.0))
    (fun (loads, frac) ->
      let p = Profile.sequential loads in
      let ends = Profile.length p in
      let ats = [ frac *. ends; ends; ends +. 10.0 ] in
      List.for_all
        (fun at ->
          let fast = Rakhmatov.sigma p ~at in
          let slow = Batsched_oracle.Rakhmatov.sigma p ~at in
          Float.abs (fast -. slow) <= 1e-9 *. (1.0 +. Float.abs slow))
        ats)

let prop_sigma_matches_reference_with_gaps =
  QCheck.Test.make ~count:100
    ~name:"fast RV sigma agrees with reference across idle gaps"
    QCheck.(triple gen_loads (float_range 0.1 60.0) (float_range 0.0 1.0))
    (fun (loads, idle, frac) ->
      QCheck.assume (List.length loads >= 2);
      let p = Profile.sequential loads in
      let q = Profile.with_idle p ~after:(frac *. Profile.length p) ~idle in
      let at = Profile.length q in
      let slow = Batsched_oracle.Rakhmatov.sigma q ~at in
      Float.abs (Rakhmatov.sigma q ~at -. slow) <= 1e-9 *. (1.0 +. slow))

(* --- Periodic fast kernel vs quadratic oracle --- *)

(* Random mission: a 1-4 interval cycle (optionally with an idle gap
   inside), a period leaving factor-1 headroom, and a budget expressed
   in cycles' worth of charge so deaths land within the horizon. *)
let gen_mission =
  QCheck.(
    quad
      (list_of_size Gen.(int_range 1 4)
         (pair (float_range 50.0 900.0) (float_range 1.0 20.0)))
      (float_range 0.0 10.0)   (* idle gap inside the cycle *)
      (float_range 1.0 2.5)    (* period / cycle-length factor *)
      (float_range 0.8 25.0))  (* alpha in charge-per-cycle units *)

let mission_of (loads, idle, factor, worth) =
  let p = Profile.sequential loads in
  let cycle =
    match Profile.intervals p with
    | first :: _ :: _ when idle > 0.01 ->
        Profile.with_idle p
          ~after:(first.Profile.start +. first.Profile.duration)
          ~idle
    | _ -> p
  in
  let period = Profile.length cycle *. factor in
  let alpha = Profile.total_charge cycle *. worth in
  (cycle, period, alpha)

let endured f ~max_cycles ~model ~alpha ~period cycle =
  match f ?max_cycles:(Some max_cycles) ~model ~alpha ~period cycle with
  | o -> Periodic.cycles o
  | exception Periodic.Unsustainable _ -> 0

(* The fast kernel and the oracle compute the same mathematical sigma
   with different float accumulation, so at probes landing within a few
   ulps of alpha the death cycle may legitimately differ.  Instead of a
   point comparison, bracket: lifetime is monotone in alpha, so the
   fast result must sit between the oracle's answers at alpha shrunk
   and grown by a 1e-6 relative margin — and on the (overwhelmingly
   common) draws where no probe is that close, the bracket is tight and
   the comparison exact. *)
let prop_periodic_matches_oracle ?(count = 40) ?(max_cycles = 25) name model =
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "periodic fast kernel matches oracle (%s)" name)
    gen_mission
    (fun draw ->
      let cycle, period, alpha = mission_of draw in
      let fast =
        endured Periodic.cycles_to_death ~max_cycles ~model ~alpha ~period
          cycle
      in
      let lo =
        endured Batsched_oracle.Periodic.cycles_to_death ~max_cycles ~model
          ~alpha:(alpha *. (1.0 -. 1e-6))
          ~period cycle
      in
      let hi =
        endured Batsched_oracle.Periodic.cycles_to_death ~max_cycles ~model
          ~alpha:(alpha *. (1.0 +. 1e-6))
          ~period cycle
      in
      lo <= fast && fast <= hi)

let prop_periodic_oracle_ideal =
  prop_periodic_matches_oracle ~count:60 "ideal" Ideal.model

let prop_periodic_oracle_peukert =
  prop_periodic_matches_oracle ~count:60 "peukert" (Peukert.model ())

let prop_periodic_oracle_rakhmatov =
  prop_periodic_matches_oracle ~count:30 "rakhmatov" (Rakhmatov.model ())

let prop_periodic_oracle_kibam =
  prop_periodic_matches_oracle ~count:40 "kibam" (Kibam.model ())

let test_sigma_reference_single_interval () =
  let p = Profile.constant ~current:500.0 ~duration:10.0 in
  (* a = 0 edge: observation instant coincides with the interval end *)
  check_float "at end"
    (Batsched_oracle.Rakhmatov.sigma p ~at:10.0)
    (Rakhmatov.sigma p ~at:10.0);
  check_float "mid-interval clip"
    (Batsched_oracle.Rakhmatov.sigma p ~at:4.0)
    (Rakhmatov.sigma p ~at:4.0);
  check_float "empty prefix" 0.0 (Rakhmatov.sigma p ~at:0.0)

let test_profile_fold_until_matches_truncate () =
  let p = Profile.sequential [ (100.0, 2.0); (200.0, 3.0); (50.0, 4.0) ] in
  List.iter
    (fun at ->
      let folded =
        List.rev
          (Profile.fold_until p ~at ~init:[]
             ~f:(fun acc ~start ~duration ~current ->
               (start, duration, current) :: acc))
      in
      let copied =
        List.map
          (fun iv -> (iv.Profile.start, iv.Profile.duration, iv.Profile.current))
          (Profile.intervals (Profile.truncate p ~at))
      in
      Alcotest.(check (list (triple (float 1e-12) (float 1e-12) (float 1e-12))))
        (Printf.sprintf "at %.1f" at) copied folded)
    [ 0.0; 1.0; 2.0; 3.5; 9.0; 20.0 ]

let test_profile_sequential_arrays_matches_sequential () =
  let pairs = [ (100.0, 2.0); (200.0, 0.0); (50.0, 4.0) ] in
  let a = Profile.sequential pairs in
  (* the pairs sit at [1 .. 3] of longer arrays *)
  let currents = [| 7.0; 100.0; 200.0; 50.0; 9.0 |] in
  let durations = [| 1.0; 2.0; 0.0; 4.0; 3.0 |] in
  let b = Profile.sequential_arrays ~currents ~durations ~pos:1 ~len:3 in
  Alcotest.(check int) "count" (Profile.num_intervals a) (Profile.num_intervals b);
  Alcotest.(check int) "zero duration dropped" 2 (Profile.num_intervals b);
  check_float "length" (Profile.length a) (Profile.length b);
  check_float "charge" (Profile.total_charge a) (Profile.total_charge b);
  for i = 0 to 1 do
    check_float "start" (Profile.start a i) (Profile.start b i);
    check_float "duration" (Profile.duration a i) (Profile.duration b i);
    check_float "current" (Profile.current a i) (Profile.current b i)
  done;
  check_float "second start" 2.0 (Profile.start b 1);
  currents.(1) <- 0.0;
  check_float "arrays copied" 100.0 (Profile.current b 0);
  Alcotest.check_raises "range"
    (Invalid_argument "Profile.sequential_arrays: range out of bounds")
    (fun () ->
      ignore (Profile.sequential_arrays ~currents ~durations ~pos:3 ~len:3))

(* --- Delta: incremental sigma evaluation --- *)

module Probe = Batsched_numeric.Probe

(* Delta agrees with the full path within 1e-9 relative, not absolute:
   the two accumulate the recovery times in opposite directions (see
   delta.mli), same convention as the fast-vs-reference sigma tests
   above. *)
let check_rel name want got =
  let ok = Float.abs (got -. want) <= 1e-9 *. (1.0 +. Float.abs want) in
  if not ok then
    Alcotest.failf "%s: got %.17g, want %.17g (rel %.3g)" name got want
      (Float.abs (got -. want) /. (1.0 +. Float.abs want))

let rv = Rakhmatov.model ()

let full_eval model points =
  let p = Profile.sequential points in
  (Model.sigma_end model p, Profile.length p)

let delta_of model points =
  let arr = Array.of_list points in
  Delta.init model ~n:(Array.length arr) ~point:(fun i -> arr.(i))

let check_against_full model d points =
  let sigma, finish = full_eval model points in
  check_rel "sigma" sigma (Delta.sigma d);
  check_rel "finish" finish (Delta.finish d)

let base_points =
  [ (400.0, 2.0); (150.0, 4.0); (800.0, 1.0); (250.0, 3.0); (90.0, 6.0) ]

let swap_list l k =
  List.mapi
    (fun i x ->
      if i = k then List.nth l (k + 1)
      else if i = k + 1 then List.nth l k
      else x)
    l

let set_list l k v = List.mapi (fun i x -> if i = k then v else x) l

let test_delta_load_matches_full () =
  List.iter
    (fun model -> check_against_full model (delta_of model base_points) base_points)
    [ rv; Ideal.model; Peukert.model (); Kibam.model () ]

let test_delta_swap_matches_full () =
  let d = delta_of rv base_points in
  (* candidate = oracle of the swapped list; committed state unchanged
     until commit *)
  let want_sigma, want_finish = full_eval rv (swap_list base_points 1) in
  let got_sigma, got_finish = Delta.try_swap d 1 in
  check_rel "candidate sigma" want_sigma got_sigma;
  check_rel "candidate finish" want_finish got_finish;
  Delta.discard d;
  check_against_full rv d base_points;
  ignore (Delta.try_swap d 1);
  Delta.commit d;
  check_against_full rv d (swap_list base_points 1)

let test_delta_swap_boundaries () =
  let n = List.length base_points in
  List.iter
    (fun k ->
      let d = delta_of rv base_points in
      ignore (Delta.try_swap d k);
      Delta.commit d;
      check_against_full rv d (swap_list base_points k))
    [ 0; n - 2 ]

let test_delta_set_boundaries () =
  let n = List.length base_points in
  List.iter
    (fun k ->
      let d = delta_of rv base_points in
      let v = (333.0, 2.5) in
      let want_sigma, want_finish = full_eval rv (set_list base_points k v) in
      let got_sigma, got_finish =
        Delta.try_set d k ~current:(fst v) ~duration:(snd v)
      in
      check_rel "candidate sigma" want_sigma got_sigma;
      check_rel "candidate finish" want_finish got_finish;
      Delta.commit d;
      check_against_full rv d (set_list base_points k v))
    [ 0; n - 1 ]

let test_delta_swap_after_set () =
  let d = delta_of rv base_points in
  let points = set_list base_points 3 (500.0, 0.5) in
  ignore (Delta.try_set d 3 ~current:500.0 ~duration:0.5);
  Delta.commit d;
  let points' = swap_list points 2 in
  ignore (Delta.try_swap d 2);
  Delta.commit d;
  check_against_full rv d points'

let test_delta_zero_duration () =
  (* zero-duration positions are kept with an exactly-zero term, so
     sigma matches the profile path, which drops them *)
  let points = [ (400.0, 2.0); (999.0, 0.0); (150.0, 4.0) ] in
  let d = delta_of rv points in
  check_against_full rv d points;
  (* shrinking a position to zero duration and back *)
  let d = delta_of rv base_points in
  ignore (Delta.try_set d 2 ~current:800.0 ~duration:0.0);
  Delta.commit d;
  check_against_full rv d (set_list base_points 2 (800.0, 0.0));
  ignore (Delta.try_set d 2 ~current:800.0 ~duration:1.0);
  Delta.commit d;
  check_against_full rv d base_points

let test_delta_single_interval () =
  let points = [ (500.0, 3.0) ] in
  let d = delta_of rv points in
  check_against_full rv d points;
  Alcotest.check_raises "no swap on n=1"
    (Invalid_argument "Delta.try_swap: position out of range") (fun () ->
      ignore (Delta.try_swap d 0));
  ignore (Delta.try_set d 0 ~current:200.0 ~duration:7.0);
  Delta.commit d;
  check_against_full rv d [ (200.0, 7.0) ]

let test_delta_pending_protocol () =
  let d = delta_of rv base_points in
  Alcotest.check_raises "commit w/o move"
    (Invalid_argument "Delta.commit: no pending move") (fun () ->
      Delta.commit d);
  Alcotest.check_raises "discard w/o move"
    (Invalid_argument "Delta.discard: no pending move") (fun () ->
      Delta.discard d);
  ignore (Delta.try_swap d 0);
  Alcotest.check_raises "second try while pending"
    (Invalid_argument "Delta.try_set: uncommitted pending move") (fun () ->
      ignore (Delta.try_set d 1 ~current:1.0 ~duration:1.0));
  Delta.discard d

let test_delta_of_profile_rejects_gaps () =
  let gapped =
    Profile.with_idle
      (Profile.sequential [ (100.0, 2.0); (200.0, 3.0) ])
      ~after:2.0 ~idle:1.0
  in
  Alcotest.check_raises "idle gaps"
    (Invalid_argument "Delta.of_profile: profile has idle gaps") (fun () ->
      ignore (Delta.of_profile rv gapped));
  let ok = Profile.sequential base_points in
  check_against_full rv (Delta.of_profile rv ok) base_points

let test_delta_fallback_counts_full_evals () =
  (* a deliberately opaque model — no incremental terms, no batch
     kernel, no decay view — forces the counted full-profile fallback;
     the probe books each one both in the flat field and under the
     model's name in the open-keyed counters (kibam itself no longer
     falls back: it has a closed-form incremental decomposition) *)
  let model =
    { Model.name = "opaque";
      sigma = (fun p ~at -> Kibam.sigma p ~at);
      incremental = None;
      batch = None;
      decay = None }
  in
  let named c =
    match List.assoc_opt "delta_full_evals/opaque" (Probe.named_counts c) with
    | Some v -> v
    | None -> 0
  in
  let c0 = Probe.totals () in
  let d = delta_of model base_points in
  ignore (Delta.try_swap d 1);
  Delta.discard d;
  check_against_full model d base_points;
  ignore (Delta.try_set d 0 ~current:50.0 ~duration:2.0);
  Delta.commit d;
  check_against_full model d (set_list base_points 0 (50.0, 2.0));
  let c1 = Probe.totals () in
  let evals = c1.Probe.delta_full_evals - c0.Probe.delta_full_evals in
  Alcotest.(check bool) "full evals counted" true (evals >= 3);
  Alcotest.(check int) "attributed to the model by name" evals
    (named c1 - named c0)

let test_delta_kibam_incremental_no_fallback () =
  (* the closed-form decomposition keeps kibam off the fallback path
     entirely: a burst of swap/set candidates costs zero full evals *)
  let model = Kibam.model () in
  let c0 = (Probe.totals ()).Probe.delta_full_evals in
  let d = delta_of model base_points in
  ignore (Delta.try_swap d 1);
  Delta.commit d;
  ignore (Delta.try_set d 0 ~current:50.0 ~duration:2.0);
  Delta.commit d;
  ignore (Delta.try_swap d 2);
  Delta.discard d;
  check_against_full model d
    (set_list (swap_list base_points 1) 0 (50.0, 2.0));
  Alcotest.(check int) "no full evals" c0
    (Probe.totals ()).Probe.delta_full_evals

let coarse_diffusion =
  (* 8 nodes, 1-minute steps: the fallback logic under test is
     grid-independent, and the default grid would dominate test time *)
  Diffusion.model
    ~params:(Diffusion.make_params ~nodes:8 ~dt:1.0 ~alpha:40375.0 ~beta:0.273 ())
    ()

let test_delta_pde_full_eval_fallback () =
  (* the PDE ships no incremental terms: every candidate takes the
     generic full-profile fallback, booked under the model's name *)
  let named c =
    match
      List.assoc_opt "delta_full_evals/diffusion-pde" (Probe.named_counts c)
    with
    | Some v -> v
    | None -> 0
  in
  let c0 = Probe.totals () in
  let points = List.init 16 (fun i -> (100.0 +. (10.0 *. float_of_int i), 1.5)) in
  let d = delta_of coarse_diffusion points in
  ignore (Delta.try_swap d 9);
  Delta.discard d;
  ignore (Delta.try_swap d 9);
  Delta.commit d;
  check_against_full coarse_diffusion d (swap_list points 9);
  let c1 = Probe.totals () in
  (* one evaluation at load, one per candidate *)
  Alcotest.(check int) "full evals attributed to the pde" 3
    (named c1 - named c0)

let test_delta_swap_term_evals_constant () =
  (* the headline O(1) claim: a swap costs at most 2 term evaluations
     under the RV model, independent of n — and none at all for a
     tail-insensitive model *)
  let points = List.init 40 (fun i -> (100.0 +. float_of_int i, 1.0)) in
  let d = delta_of rv points in
  let c0 = (Probe.totals ()).Probe.delta_terms in
  for k = 0 to 38 do
    ignore (Delta.try_swap d k);
    Delta.commit d
  done;
  let per_swap = (Probe.totals ()).Probe.delta_terms - c0 in
  Alcotest.(check int) "2 terms per swap" (2 * 39) per_swap;
  let d = delta_of Ideal.model points in
  let c0 = (Probe.totals ()).Probe.delta_terms in
  let s0 = Delta.sigma d in
  ignore (Delta.try_swap d 10);
  Delta.commit d;
  Alcotest.(check int) "0 terms for ideal" c0
    (Probe.totals ()).Probe.delta_terms;
  check_float "ideal sigma invariant under swap" s0 (Delta.sigma d)

let test_delta_suffix_cache_across_makespans () =
  (* the suffix-time cache key: stretching the *first* interval leaves
     every later interval's (I, D, tail) key intact, so re-costing the
     stretched schedule misses only on the changed interval — the old
     at-keyed cache missed on all of them.  A beta unique to this test
     isolates it from entries cached by other tests. *)
  let model = Rakhmatov.model ~beta:0.311 () in
  let p1 = Profile.sequential base_points in
  ignore (Model.sigma_end model p1);
  let c0 = (Probe.totals ()).Probe.contrib_misses in
  let p2 = Profile.sequential (set_list base_points 0 (400.0, 9.0)) in
  ignore (Model.sigma_end model p2);
  let misses = (Probe.totals ()).Probe.contrib_misses - c0 in
  Alcotest.(check int) "one miss despite new makespan" 1 misses

let test_delta_refresh_noop () =
  let d = delta_of rv base_points in
  for _ = 1 to 100 do
    ignore (Delta.try_swap d 1);
    Delta.commit d;
    ignore (Delta.try_swap d 1);
    Delta.commit d
  done;
  (* 200 commits crossed several automatic re-sum boundaries; a manual
     refresh must not move the value either *)
  let s = Delta.sigma d in
  Delta.refresh d;
  check_float "refresh stable" s (Delta.sigma d);
  check_against_full rv d base_points

let delta_tests =
  [ Alcotest.test_case "load matches full (all models)" `Quick test_delta_load_matches_full;
    Alcotest.test_case "swap matches full" `Quick test_delta_swap_matches_full;
    Alcotest.test_case "swap at 0 and n-2" `Quick test_delta_swap_boundaries;
    Alcotest.test_case "set at 0 and n-1" `Quick test_delta_set_boundaries;
    Alcotest.test_case "swap after set" `Quick test_delta_swap_after_set;
    Alcotest.test_case "zero-duration positions" `Quick test_delta_zero_duration;
    Alcotest.test_case "single interval" `Quick test_delta_single_interval;
    Alcotest.test_case "pending protocol" `Quick test_delta_pending_protocol;
    Alcotest.test_case "of_profile rejects gaps" `Quick test_delta_of_profile_rejects_gaps;
    Alcotest.test_case "fallback counts full evals" `Quick test_delta_fallback_counts_full_evals;
    Alcotest.test_case "kibam incremental, no fallback" `Quick test_delta_kibam_incremental_no_fallback;
    Alcotest.test_case "pde full-eval fallback" `Quick test_delta_pde_full_eval_fallback;
    Alcotest.test_case "O(1) swap term evals" `Quick test_delta_swap_term_evals_constant;
    Alcotest.test_case "suffix cache across makespans" `Quick test_delta_suffix_cache_across_makespans;
    Alcotest.test_case "refresh after many commits" `Quick test_delta_refresh_noop ]

(* --- Sigma_batch: structure-of-arrays population evaluation --- *)

let test_sigma_batch_single_row_matches_full () =
  let b = Sigma_batch.create rv in
  let pts = Array.of_list base_points in
  let n = Array.length pts in
  Sigma_batch.eval b ~pop:1 ~n
    ~current:(fun _ k -> fst pts.(k))
    ~duration:(fun _ k -> snd pts.(k));
  let want_sigma, want_finish = full_eval rv base_points in
  check_rel "sigma" want_sigma (Sigma_batch.sigma b 0);
  check_rel "finish" want_finish (Sigma_batch.finish b 0);
  Alcotest.(check int) "pop" 1 (Sigma_batch.pop b);
  Alcotest.(check int) "width" n (Sigma_batch.width b);
  (* reuse with a wider block: the arrays regrow, every row agrees *)
  Sigma_batch.eval b ~pop:5 ~n
    ~current:(fun _ k -> fst pts.(k))
    ~duration:(fun _ k -> snd pts.(k));
  for p = 0 to 4 do
    check_rel "row sigma" want_sigma (Sigma_batch.sigma b p)
  done

let test_sigma_batch_validation () =
  let b = Sigma_batch.create rv in
  Alcotest.check_raises "negative current"
    (Invalid_argument "Sigma_batch.eval: negative current") (fun () ->
      Sigma_batch.eval b ~pop:1 ~n:1
        ~current:(fun _ _ -> -1.0)
        ~duration:(fun _ _ -> 1.0));
  Alcotest.check_raises "negative duration"
    (Invalid_argument "Sigma_batch.eval: negative duration") (fun () ->
      Sigma_batch.eval b ~pop:1 ~n:1
        ~current:(fun _ _ -> 1.0)
        ~duration:(fun _ _ -> -1.0));
  Alcotest.check_raises "non-finite"
    (Invalid_argument "Sigma_batch.eval: non-finite interval field")
    (fun () ->
      Sigma_batch.eval b ~pop:1 ~n:1
        ~current:(fun _ _ -> Float.nan)
        ~duration:(fun _ _ -> 1.0));
  Sigma_batch.eval b ~pop:2 ~n:1
    ~current:(fun _ _ -> 1.0)
    ~duration:(fun _ _ -> 1.0);
  Alcotest.check_raises "sigma out of range"
    (Invalid_argument "Sigma_batch.sigma: out of range") (fun () ->
      ignore (Sigma_batch.sigma b 2));
  Alcotest.check_raises "finish out of range"
    (Invalid_argument "Sigma_batch.finish: out of range") (fun () ->
      ignore (Sigma_batch.finish b (-1)))

let test_sigma_batch_counters () =
  (* kernel models book candidates, kernel-less models book fallbacks *)
  let run model =
    let b = Sigma_batch.create model in
    Sigma_batch.eval b ~pop:3 ~n:2
      ~current:(fun _ _ -> 100.0)
      ~duration:(fun _ _ -> 1.0)
  in
  let c0 = Probe.totals () in
  run rv;
  let c1 = Probe.totals () in
  Alcotest.(check int) "eval counted" 1 (c1.Probe.batch_evals - c0.Probe.batch_evals);
  Alcotest.(check int) "kernel candidates" 3
    (c1.Probe.batch_candidates - c0.Probe.batch_candidates);
  run coarse_diffusion;
  let c2 = Probe.totals () in
  Alcotest.(check int) "fallback candidates" 3
    (c2.Probe.batch_fallbacks - c1.Probe.batch_fallbacks)

let sigma_batch_tests =
  [ Alcotest.test_case "single row matches full" `Quick test_sigma_batch_single_row_matches_full;
    Alcotest.test_case "validation" `Quick test_sigma_batch_validation;
    Alcotest.test_case "work counters" `Quick test_sigma_batch_counters ]

(* Random interval lists driven through random move traces: committed
   sigma/finish track the full evaluation of the mirrored list.  One
   instance per delta strategy — incremental terms (Rakhmatov, KiBaM)
   and the full-eval fallback (diffusion). *)
let prop_delta_traces ~count ~name model =
  QCheck.Test.make ~count ~name
    QCheck.(pair (int_bound 100_000) (int_range 1 12))
    (fun (seed, n) ->
      let rng = Batsched_numeric.Rng.create seed in
      let point () =
        let current = 10.0 +. Batsched_numeric.Rng.float rng 800.0 in
        let duration =
          (* one position in five is zero-duration *)
          if Batsched_numeric.Rng.int rng 5 = 0 then 0.0
          else 0.1 +. Batsched_numeric.Rng.float rng 8.0
        in
        (current, duration)
      in
      let points = ref (List.init n (fun _ -> point ())) in
      let d = delta_of model !points in
      for _ = 1 to 40 do
        let commit_it = Batsched_numeric.Rng.int rng 4 > 0 in
        if n >= 2 && Batsched_numeric.Rng.bool rng then begin
          let k = Batsched_numeric.Rng.int rng (n - 1) in
          ignore (Delta.try_swap d k);
          if commit_it then begin
            Delta.commit d;
            points := swap_list !points k
          end
          else Delta.discard d
        end
        else begin
          let k = Batsched_numeric.Rng.int rng n in
          let v = point () in
          ignore (Delta.try_set d k ~current:(fst v) ~duration:(snd v));
          if commit_it then begin
            Delta.commit d;
            points := set_list !points k v
          end
          else Delta.discard d
        end
      done;
      let sigma, finish = full_eval model !points in
      Float.abs (Delta.sigma d -. sigma) <= 1e-9 *. (1.0 +. Float.abs sigma)
      && Float.abs (Delta.finish d -. finish)
         <= 1e-9 *. (1.0 +. Float.abs finish))

let prop_delta_traces_match_full =
  prop_delta_traces ~count:200 ~name:"delta random move traces match full eval"
    rv

let prop_delta_traces_kibam =
  prop_delta_traces ~count:500
    ~name:"kibam delta traces match full eval (incremental)" (Kibam.model ())

let prop_delta_traces_diffusion =
  prop_delta_traces ~count:500
    ~name:"diffusion delta traces match full eval (fallback)"
    coarse_diffusion

(* Sigma_batch agrees with per-row sequential evaluation for every
   model — kernel (ideal/peukert/rakhmatov/kibam) and fallback
   (diffusion) — and is invariant under pool sharding. *)
let prop_sigma_batch_matches_sequential =
  let pool4 = Batsched_numeric.Pool.create 4 in
  QCheck.Test.make ~count:100
    ~name:"sigma batch matches per-row sequential eval"
    QCheck.(pair (int_bound 100_000) (int_range 1 4))
    (fun (seed, pop) ->
      let rng = Batsched_numeric.Rng.create seed in
      let n = 1 + Batsched_numeric.Rng.int rng 10 in
      let currents =
        Array.init (pop * n) (fun _ ->
            10.0 +. Batsched_numeric.Rng.float rng 800.0)
      in
      let durations =
        Array.init (pop * n) (fun _ ->
            if Batsched_numeric.Rng.int rng 5 = 0 then 0.0
            else 0.1 +. Batsched_numeric.Rng.float rng 8.0)
      in
      List.for_all
        (fun model ->
          let want =
            Array.init pop (fun p ->
                let profile =
                  Profile.sequential_arrays ~currents ~durations
                    ~pos:(p * n) ~len:n
                in
                (Model.sigma_end model profile, Profile.length profile))
          in
          List.for_all
            (fun pool ->
              let b = Sigma_batch.create ?pool model in
              Sigma_batch.eval b ~pop ~n
                ~current:(fun p k -> currents.((p * n) + k))
                ~duration:(fun p k -> durations.((p * n) + k));
              List.for_all
                (fun p ->
                  let ws, wf = want.(p) in
                  Float.abs (Sigma_batch.sigma b p -. ws)
                  <= 1e-9 *. (1.0 +. Float.abs ws)
                  && Float.abs (Sigma_batch.finish b p -. wf)
                     <= 1e-9 *. (1.0 +. Float.abs wf))
                (List.init pop Fun.id))
            [ None; Some pool4 ])
        [ rv; Ideal.model; Peukert.model (); Kibam.model (); coarse_diffusion ])

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_delta_traces_match_full;
      prop_delta_traces_kibam;
      prop_delta_traces_diffusion;
      prop_sigma_batch_matches_sequential;
      prop_sigma_monotone_in_time;
      prop_sigma_at_least_ideal_at_end;
      prop_decreasing_order_never_worse;
      prop_idle_never_hurts;
      prop_sigma_matches_reference;
      prop_sigma_matches_reference_with_gaps;
      prop_periodic_oracle_ideal;
      prop_periodic_oracle_peukert;
      prop_periodic_oracle_rakhmatov;
      prop_periodic_oracle_kibam ]

let () =
  Alcotest.run "battery"
    [ ( "profile",
        [ Alcotest.test_case "empty" `Quick test_profile_empty;
          Alcotest.test_case "sequential layout" `Quick test_profile_sequential_layout;
          Alcotest.test_case "total charge" `Quick test_profile_total_charge;
          Alcotest.test_case "drops zero duration" `Quick test_profile_drops_zero_duration;
          Alcotest.test_case "rejects overlap" `Quick test_profile_rejects_overlap;
          Alcotest.test_case "rejects negative current" `Quick test_profile_rejects_negative_current;
          Alcotest.test_case "touching ok" `Quick test_profile_touching_ok;
          Alcotest.test_case "truncate clips" `Quick test_profile_truncate_clips;
          Alcotest.test_case "truncate drops later" `Quick test_profile_truncate_drops_later;
          Alcotest.test_case "with idle" `Quick test_profile_with_idle;
          Alcotest.test_case "peak current" `Quick test_profile_peak_current;
          Alcotest.test_case "fold_until matches truncate" `Quick test_profile_fold_until_matches_truncate;
          Alcotest.test_case "sequential_arrays matches sequential" `Quick test_profile_sequential_arrays_matches_sequential ] );
      ( "ideal",
        [ Alcotest.test_case "equals charge" `Quick test_ideal_equals_charge;
          Alcotest.test_case "truncation" `Quick test_ideal_truncation ] );
      ( "peukert",
        [ Alcotest.test_case "reference current" `Quick test_peukert_reference_current_ideal;
          Alcotest.test_case "penalizes high" `Quick test_peukert_penalizes_high_current;
          Alcotest.test_case "rewards low" `Quick test_peukert_rewards_low_current;
          Alcotest.test_case "exponent 1 is ideal" `Quick test_peukert_exponent_one_is_ideal;
          Alcotest.test_case "invalid" `Quick test_peukert_invalid ] );
      ( "rakhmatov",
        [ Alcotest.test_case "reference edges" `Quick test_sigma_reference_single_interval;
          Alcotest.test_case "exceeds ideal during load" `Quick test_rv_exceeds_ideal_during_load;
          Alcotest.test_case "recovers at rest" `Quick test_rv_recovers_at_rest;
          Alcotest.test_case "monotone in time" `Quick test_rv_monotone_in_time_during_load;
          Alcotest.test_case "zero at time zero" `Quick test_rv_zero_at_time_zero;
          Alcotest.test_case "large beta is ideal" `Quick test_rv_large_beta_is_ideal;
          Alcotest.test_case "linear in currents" `Quick test_rv_superposition_of_currents;
          Alcotest.test_case "paper magnitude" `Quick test_rv_paper_magnitude;
          Alcotest.test_case "pairwise ordering" `Quick test_rv_ordering_theorem_pairwise;
          Alcotest.test_case "unavailable nonneg" `Quick test_rv_unavailable_nonnegative;
          Alcotest.test_case "sigma dips after heavy load" `Quick test_rv_sigma_can_dip_after_heavy_load;
          Alcotest.test_case "negative time" `Quick test_rv_negative_time_rejected ] );
      ( "kibam",
        [ Alcotest.test_case "full state" `Quick test_kibam_full_state;
          Alcotest.test_case "conservation" `Quick test_kibam_conservation;
          Alcotest.test_case "sigma zero at start" `Quick test_kibam_sigma_zero_at_start;
          Alcotest.test_case "sigma equals drawn at rest" `Quick test_kibam_sigma_equals_drawn_at_equilibrium;
          Alcotest.test_case "rate capacity" `Quick test_kibam_rate_capacity;
          Alcotest.test_case "recovery between bursts" `Quick test_kibam_recovery_between_bursts;
          Alcotest.test_case "lifetime monotone in load" `Quick test_kibam_lifetime_decreases_with_load;
          Alcotest.test_case "delivers less at high rate" `Quick test_kibam_delivers_less_at_high_rate;
          Alcotest.test_case "param validation" `Quick test_kibam_param_validation;
          Alcotest.test_case "step validation" `Quick test_kibam_step_validation;
          Alcotest.test_case "zero-duration step identity" `Quick test_kibam_zero_duration_step_identity ] );
      ("delta", delta_tests);
      ("sigma_batch", sigma_batch_tests);
      ( "lifetime",
        [ Alcotest.test_case "survives light load" `Quick test_lifetime_survives_light_load;
          Alcotest.test_case "dies under heavy load" `Quick test_lifetime_dies_under_heavy_load;
          Alcotest.test_case "constant consistency" `Quick test_lifetime_constant_current_consistent;
          Alcotest.test_case "decreases with load" `Quick test_lifetime_decreases_with_load;
          Alcotest.test_case "ideal exact" `Quick test_lifetime_ideal_model_exact;
          Alcotest.test_case "first crossing on dip" `Quick test_lifetime_first_crossing_on_dip;
          Alcotest.test_case "bad alpha" `Quick test_lifetime_bad_alpha ] );
      ( "diffusion",
        [ Alcotest.test_case "zero load" `Quick test_diffusion_zero_load;
          Alcotest.test_case "conservation at rest" `Quick test_diffusion_conservation_at_rest;
          Alcotest.test_case "matches analytic under load" `Quick test_diffusion_matches_analytic_under_load;
          Alcotest.test_case "matches analytic with recovery" `Quick test_diffusion_matches_analytic_with_recovery;
          Alcotest.test_case "ten terms undercount" `Quick test_diffusion_ten_terms_undercounts_under_load;
          Alcotest.test_case "surface depletes" `Quick test_diffusion_surface_depletes;
          Alcotest.test_case "param validation" `Quick test_diffusion_param_validation ] );
      ( "periodic",
        [ Alcotest.test_case "ideal matches budget" `Quick test_periodic_ideal_matches_budget;
          Alcotest.test_case "unsustainable" `Quick test_periodic_unsustainable_first_cycle;
          Alcotest.test_case "rest helps" `Quick test_periodic_rv_rest_helps;
          Alcotest.test_case "cycle longer than period" `Quick test_periodic_cycle_longer_than_period;
          Alcotest.test_case "max cycles cap" `Quick test_periodic_max_cycles_cap;
          Alcotest.test_case "min period" `Quick test_periodic_min_period;
          Alcotest.test_case "min period impossible" `Quick test_periodic_min_period_impossible;
          Alcotest.test_case "interp curve" `Quick test_periodic_interp_curve;
          Alcotest.test_case "fast path engages" `Quick test_periodic_fast_path_engages;
          Alcotest.test_case "batch matches scalar" `Quick test_periodic_batch_matches_scalar ] );
      ( "cell",
        [ Alcotest.test_case "presets" `Quick test_cell_presets;
          Alcotest.test_case "validation" `Quick test_cell_validation ] );
      ( "curves",
        [ Alcotest.test_case "rate capacity shape" `Quick test_curves_rate_capacity_shape;
          Alcotest.test_case "recovery shape" `Quick test_curves_recovery_shape;
          Alcotest.test_case "sigma curve monotone" `Quick test_curves_sigma_curve_monotone;
          Alcotest.test_case "ordering gap" `Quick test_curves_ordering_gap ] );
      ("properties", qcheck_tests) ]
