(* battsim: explore the battery models.

   Subcommands:
     lifetime  --current I [--alpha A] [--beta B] [--model rakhmatov|peukert|ideal]
     sigma     --load I:D [--load I:D ...] [--beta B] [--idle GAP]
     curve     --current I [--beta B] [--points N]  (sigma vs T table) *)

open Cmdliner
open Batsched_battery

(* Every subcommand takes the shared telemetry flags (Run.term).  The
   whole command body runs under one span named after the subcommand,
   so the trace is non-trivial even though the battery layer itself
   only bumps counters. *)
let with_run ?seed ?pool_size ~label ~knobs opts f =
  let run = Batsched_obs.Run.start opts in
  let result =
    Batsched_obs.Sink.with_span (Batsched_obs.Run.sink run) label f
  in
  (match result with
  | `Ok () ->
      Batsched_obs.Run.finish ?seed ?pool_size
        ?model:(List.assoc_opt "model" knobs)
        ~tool:"battsim" ~label ~knobs run
  | _ -> ());
  result

let model_of name beta =
  match name with
  | "rakhmatov" -> Ok (Rakhmatov.model ~beta ())
  | "peukert" -> Ok (Peukert.model ())
  | "kibam" -> Ok (Kibam.model ())
  | "pde" ->
      Ok
        (Diffusion.model
           ~params:
             (Diffusion.make_params ~alpha:Cell.itsy.Cell.alpha ~beta ())
           ())
  | "ideal" -> Ok Ideal.model
  | m -> Error ("unknown model: " ^ m)

let beta_arg =
  Arg.(value & opt float Rakhmatov.default_beta
       & info [ "beta" ] ~docv:"B" ~doc:"RV diffusion parameter.")

let alpha_arg =
  Arg.(value & opt float Cell.itsy.Cell.alpha
       & info [ "alpha" ] ~docv:"A" ~doc:"Capacity parameter, mA*min.")

let model_arg =
  Arg.(value & opt string "rakhmatov"
       & info [ "model" ] ~docv:"M"
           ~doc:"rakhmatov, kibam, peukert, pde or ideal.")

(* lifetime *)
let lifetime current alpha beta model_name opts =
  with_run ~label:"lifetime"
    ~knobs:
      [ ("model", model_name); ("current", Printf.sprintf "%g" current);
        ("alpha", Printf.sprintf "%g" alpha);
        ("beta", Printf.sprintf "%g" beta) ]
    opts
  @@ fun () ->
  match model_of model_name beta with
  | Error msg -> `Error (false, msg)
  | Ok model ->
      if current <= 0.0 then `Error (false, "current must be positive")
      else begin
        let t = Lifetime.of_constant_current ~model ~alpha ~current in
        Printf.printf
          "model %s, alpha %.0f mA*min, constant %.1f mA -> lifetime %.2f min \
           (%.2f h), delivered %.0f mA*min (%.1f%% of alpha)\n"
          model_name alpha current t (t /. 60.0) (current *. t)
          (100.0 *. current *. t /. alpha);
        `Ok ()
      end

let current_arg =
  Arg.(required & opt (some float) None
       & info [ "current" ] ~docv:"MA" ~doc:"Constant load, mA.")

let lifetime_cmd =
  Cmd.v (Cmd.info "lifetime" ~doc:"lifetime under a constant load")
    Term.(
      ret
        (const lifetime $ current_arg $ alpha_arg $ beta_arg $ model_arg
         $ Batsched_obs.Run.term))

(* sigma *)
let parse_load s =
  match String.split_on_char ':' s with
  | [ i; d ] -> (
      try Ok (float_of_string i, float_of_string d)
      with Failure _ -> Error ("bad load: " ^ s))
  | _ -> Error ("bad load (want I:D): " ^ s)

let sigma loads beta idle model_name opts =
  with_run ~label:"sigma"
    ~knobs:
      [ ("model", model_name); ("beta", Printf.sprintf "%g" beta);
        ("idle", Printf.sprintf "%g" idle);
        ("loads", string_of_int (List.length loads)) ]
    opts
  @@ fun () ->
  match model_of model_name beta with
  | Error msg -> `Error (false, msg)
  | Ok model -> (
      let rec parse acc = function
        | [] -> Ok (List.rev acc)
        | s :: rest -> (
            match parse_load s with
            | Ok l -> parse (l :: acc) rest
            | Error e -> Error e)
      in
      match parse [] loads with
      | Error msg -> `Error (false, msg)
      | Ok [] -> `Error (false, "need at least one --load I:D")
      | Ok pairs ->
          let base = Profile.sequential pairs in
          let profile =
            if idle > 0.0 then
              (* open a recovery gap before the last interval *)
              match List.rev (Profile.intervals base) with
              | last :: _ ->
                  Profile.with_idle base ~after:last.Profile.start ~idle
              | [] -> base
            else base
          in
          Format.printf "%a" Profile.pp profile;
          Printf.printf "total charge: %.1f mA*min\nsigma at end: %.1f mA*min\n"
            (Profile.total_charge profile)
            (Model.sigma_end model profile);
          `Ok ())

let loads_arg =
  Arg.(value & opt_all string []
       & info [ "load" ] ~docv:"I:D" ~doc:"A load interval: current:duration.")

let idle_arg =
  Arg.(value & opt float 0.0
       & info [ "idle" ] ~docv:"MIN"
           ~doc:"Insert an idle gap before the last interval.")

let sigma_cmd =
  Cmd.v (Cmd.info "sigma" ~doc:"apparent charge lost by a load profile")
    Term.(
      ret
        (const sigma $ loads_arg $ beta_arg $ idle_arg $ model_arg
         $ Batsched_obs.Run.term))

(* curve *)
let curve current beta points model_name opts =
  with_run ~label:"curve"
    ~knobs:
      [ ("model", model_name); ("current", Printf.sprintf "%g" current);
        ("beta", Printf.sprintf "%g" beta);
        ("points", string_of_int points) ]
    opts
  @@ fun () ->
  match model_of model_name beta with
  | Error msg -> `Error (false, msg)
  | Ok model ->
      if current <= 0.0 then `Error (false, "current must be positive")
      else if points < 2 then `Error (false, "need at least 2 points")
      else begin
        let alpha = Cell.itsy.Cell.alpha in
        let horizon = Lifetime.of_constant_current ~model ~alpha ~current in
        let p = Profile.constant ~current ~duration:horizon in
        let curve = Curves.sigma_curve ~model p ~n:points in
        Printf.printf "# T(min)  sigma(mA*min)\n";
        List.iter
          (fun (t, s) -> Printf.printf "%10.2f  %12.1f\n" t s)
          (Batsched_numeric.Interp.points curve);
        `Ok ()
      end

let points_arg =
  Arg.(value & opt int 25 & info [ "points" ] ~docv:"N" ~doc:"Sample count.")

let curve_cmd =
  Cmd.v (Cmd.info "curve" ~doc:"tabulate sigma(T) up to exhaustion")
    Term.(
      ret
        (const curve $ current_arg $ beta_arg $ points_arg $ model_arg
         $ Batsched_obs.Run.term))

(* cycles: periodic-mission endurance *)
let cycles current burst period alpha beta model_name opts =
  with_run ~label:"cycles"
    ~knobs:
      [ ("model", model_name); ("current", Printf.sprintf "%g" current);
        ("burst", Printf.sprintf "%g" burst);
        ("period", Printf.sprintf "%g" period);
        ("alpha", Printf.sprintf "%g" alpha);
        ("beta", Printf.sprintf "%g" beta) ]
    opts
  @@ fun () ->
  match model_of model_name beta with
  | Error msg -> `Error (false, msg)
  | Ok model ->
      if current <= 0.0 || burst <= 0.0 then
        `Error (false, "current and burst must be positive")
      else if period < burst then
        `Error (false, "period must cover the burst")
      else begin
        let cycle = Profile.constant ~current ~duration:burst in
        (match
           Periodic.cycles_to_death ~model ~alpha ~period cycle
         with
        | Periodic.Dies n ->
            Printf.printf
              "%.0f mA for %.1f min every %.1f min: %d complete cycles \
               (ideal ceiling %.1f)\n"
              current burst period n
              (alpha /. (current *. burst))
        | Periodic.Censored n ->
            Printf.printf
              "%.0f mA for %.1f min every %.1f min: still alive after %d \
               cycles (ideal ceiling %.1f)\n"
              current burst period n
              (alpha /. (current *. burst))
        | exception Periodic.Unsustainable sigma ->
            Printf.printf
              "the first cycle already exhausts the battery (sigma %.0f over \
               alpha %.0f)\n"
              sigma alpha);
        `Ok ()
      end

let burst_arg =
  Arg.(value & opt float 20.0 & info [ "burst" ] ~docv:"MIN" ~doc:"Burst length.")

let period_arg =
  Arg.(value & opt float 60.0 & info [ "period" ] ~docv:"MIN" ~doc:"Cycle period.")

let cycles_cmd =
  Cmd.v (Cmd.info "cycles" ~doc:"periodic-mission endurance")
    Term.(
      ret
        (const cycles $ current_arg $ burst_arg $ period_arg $ alpha_arg
         $ beta_arg $ model_arg $ Batsched_obs.Run.term))

(* fleet: Monte Carlo endurance over a population of devices *)
let fleet spec_path devices pool_size seed json_out events_out opts =
  with_run ~label:"fleet" ~seed ~pool_size
    ~knobs:
      [ ("spec", Option.value ~default:"(built-in)" spec_path);
        ("devices", string_of_int devices);
        ("pool", string_of_int pool_size); ("seed", string_of_int seed) ]
    opts
  @@ fun () ->
  let spec =
    match spec_path with
    | None -> Ok Batsched_fleet.Spec.default
    | Some path -> Batsched_fleet.Spec.of_file path
  in
  match spec with
  | Error msg -> `Error (false, msg)
  | Ok spec ->
      if devices < 0 then `Error (false, "devices must be non-negative")
      else if pool_size < 1 then `Error (false, "pool must be at least 1")
      else begin
        let events =
          match events_out with
          | Some path -> Batsched_obs.Events.create path
          | None -> Batsched_obs.Events.noop
        in
        let result =
          Batsched_numeric.Pool.with_pool pool_size (fun pool ->
              Batsched_fleet.Engine.run ~pool ~events ~spec ~devices ~seed ())
        in
        let module S = Batsched_fleet.Survival in
        Printf.printf "fleet: %d devices, horizon %d cycles (seed %d, pool %d)\n"
          (S.n result) spec.Batsched_fleet.Spec.horizon seed pool_size;
        if S.n result > 0 then begin
          Printf.printf "  deaths %d, censored %d, mean lifetime %.1f cycles\n"
            (S.n result - S.censored result)
            (S.censored result) (S.mean_cycles result);
          Printf.printf "  quantiles: p1=%d p5=%d p50=%d p90=%d p99=%d\n"
            (S.quantile result 1.0) (S.quantile result 5.0)
            (S.quantile result 50.0) (S.quantile result 90.0)
            (S.quantile result 99.0);
          Array.iter
            (fun (label, n, censored, mean) ->
              Printf.printf "  model %-12s %6d devices, %6d censored" label n
                censored;
              if n > 0 then Printf.printf ", mean %.1f" mean;
              print_newline ())
            (S.per_model result)
        end;
        Printf.printf "  checksum %s\n" (S.checksum result);
        (match json_out with
        | None -> ()
        | Some out ->
            let buf = Buffer.create 4096 in
            S.to_json result buf;
            Buffer.add_char buf '\n';
            if out = "-" then print_string (Buffer.contents buf)
            else begin
              let oc = open_out out in
              Buffer.output_buffer oc buf;
              close_out oc;
              Printf.printf "wrote fleet report to %s\n" out
            end);
        (match events_out with
        | Some path ->
            Batsched_obs.Events.close events;
            Printf.printf "wrote events to %s\n" path
        | None -> ());
        `Ok ()
      end

let spec_arg =
  Arg.(value & opt (some string) None
       & info [ "spec" ] ~docv:"FILE"
           ~doc:"Fleet population spec (JSON).  Omit for the built-in \
                 default population (all four analytic models over the g2 \
                 mission).")

let devices_arg =
  Arg.(value & opt int 1000
       & info [ "devices" ] ~docv:"N" ~doc:"Number of devices to simulate.")

let pool_arg =
  Arg.(value & opt int 1
       & info [ "pool" ] ~docv:"K"
           ~doc:"Worker pool size.  Results are bit-identical for any K.")

let seed_arg =
  Arg.(value & opt int 1
       & info [ "seed" ] ~docv:"S"
           ~doc:"Base RNG seed; device $(i,i) draws from an independent \
                 substream of (seed, i), so a given device's parameters do \
                 not depend on N or K.")

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the full survival report (quantiles, staircase, \
                 per-model tallies, checksum) as JSON; \"-\" for stdout.")

let events_arg =
  Arg.(value & opt (some string) None
       & info [ "events" ] ~docv:"FILE"
           ~doc:"Write a JSONL progress stream (fleet-block / fleet-done \
                 records).")

let fleet_cmd =
  Cmd.v (Cmd.info "fleet" ~doc:"Monte Carlo fleet endurance")
    Term.(
      ret
        (const fleet $ spec_arg $ devices_arg $ pool_arg $ seed_arg
         $ json_arg $ events_arg $ Batsched_obs.Run.term))

let main =
  Cmd.group
    (Cmd.info "battsim" ~doc:"battery model explorer")
    [ lifetime_cmd; sigma_cmd; curve_cmd; cycles_cmd; fleet_cmd ]

let () = exit (Cmd.eval main)
