(* Benchmark entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for S seconds on inputs made from seed N.  With
   --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
   the traced replay and reports the per-layer metrics (layers a
   workload does not touch read 0).  The metric lists come from
   BENCHMARK.json, read from the working directory.  The last line of
   standard output is one JSON object {correct, attempted, failed,
   metrics}; the lines before it are comments starting with '#'. *)

open Common

let workloads =
  [ ("paper-g2g3", fun ~seed ~seconds ~trace ->
        Paper.run ~instances:Paper.paper_instances ~seed ~seconds ~trace);
    ("dag-scale", fun ~seed ~seconds ~trace ->
        Paper.run ~instances:(fun () -> Paper.dag_instances ~seed) ~seed ~seconds ~trace);
    ("serve-mix", Serve.run);
    ("fleet-endurance", Fleet.run) ]

(* The metrics BENCHMARK.json declares under [key], as (name, unit), in
   report order.  A run prints exactly these. *)
let declared key =
  let module Json = Batsched_obs.Json in
  match Json.field key (Json.of_file "BENCHMARK.json") with
  | Some (Json.Arr l) ->
      List.map
        (fun x -> (Option.get (Json.str_field "name" x), Option.get (Json.str_field "unit" x)))
        l
  | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 in
  Printf.printf
    "# provenance {\"workload\":%S,\"seed\":%d,\"seconds\":%g,\"trace\":%b,\
     \"nproc\":%d,\"ocaml\":%S,\"pools\":{\"paper\":1,\"serve\":%d,\"fleet\":%d},\
     \"serve_rate_per_s\":%g,\"serve_latency_limit_ms\":%g}\n%!"
    !workload !seed !seconds trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Serve.pool_size Fleet.pool_size Serve.rate
    Serve.latency_limit_ms;
  let r = run ~seed:!seed ~seconds:!seconds ~trace in
  (* every declared metric, in declared order; a per-layer metric of a
     layer this workload does not touch reads 0 *)
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun x -> x.name = name) r.metrics with
        | Some x when x.unit_ = unit_ && Float.is_finite x.value -> x
        | None when trace -> m name unit_ 0.0
        | _ -> failwith ("metric missing, with another unit or not finite: " ^ name))
      (declared (if trace then "per_layer" else "end_to_end"))
  in
  List.iter
    (fun x ->
      if not (List.exists (fun y -> y.name = x.name) metrics) then
        failwith ("metric not declared in BENCHMARK.json: " ^ x.name))
    r.metrics;
  Printf.printf "# detail {%s}\n"
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (json_float v)) r.detail));
  List.iter
    (fun x -> Printf.printf "# %-28s %14.6g %s\n" x.name x.value x.unit_)
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
              (json_float x.value) x.unit_)
          metrics))
