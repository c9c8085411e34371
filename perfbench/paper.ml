(* The two closed-loop workloads over the paper's iterative loop: one
   caller runs [Iterate.run] (sequential pool) back to back.

   - paper-g2g3: the paper's own instances, G2 at deadlines 55/75/95 and
     G3 at 100/150/230 (Tables 2-4).  Window/Choose do most of the work.
   - dag-scale: seeded fork-join, layered and random DAGs of 64-256
     tasks, each solve followed by [Polish.polish].  The Eq. 4 list
     scheduler dominates here, and Choose and Polish scale with n. *)

open Batsched_taskgraph
open Batsched_sched
open Common
module Iterate = Batsched.Iterate
module Window = Batsched.Window
module Choose = Batsched.Choose
module Polish = Batsched.Polish
module Config = Batsched.Config
module Probe = Batsched_numeric.Probe
module Rng = Batsched_numeric.Rng

type instance = {
  label : string;
  g : Graph.t;
  cfg : Config.t;
  polish : bool;
  pin : (float * float) option;
      (** expected (sigma, finish), bit for bit; [None] pins the
          instance to its first solve instead *)
}

(* Sigma and finish of each paper instance at the parent commit of the
   benchmark, as hex floats so the check is bit for bit. *)
let paper_pins =
  [ ("g2", 55.0, (0x1.e3acdedff8267p+14, 0x1.b4ccccccccccdp+5));
    ("g2", 75.0, (0x1.adf09ca376cdcp+13, 0x1.2accccccccccdp+6));
    ("g2", 95.0, (0x1.f6c839bc0fb52p+12, 0x1.7accccccccccdp+6));
    ("g3", 100.0, (0x1.c0a95b35915eep+15, 0x1.9p+6));
    ("g3", 150.0, (0x1.425386889982p+15, 0x1.2a33333333333p+7));
    ("g3", 230.0, (0x1.b7a59f241d0fep+13, 0x1.cb9999999999ap+7)) ]

let paper_instances () =
  List.map
    (fun (name, deadline, pin) ->
      let g = if name = "g2" then Instances.g2 else Instances.g3 in
      { label = Printf.sprintf "%s/d%g" name deadline;
        g;
        cfg = Config.make ~deadline ();
        polish = false;
        pin = Some pin })
    paper_pins

(* Three families at five fixed sizes, five graphs of each; the seed
   draws the structure and the design points, the sizes stay fixed so
   runs on different seeds do comparable work.  With an odd number of
   sizes the median solve falls inside the middle size, not in the gap
   between two, so it does not jump with the seed. *)
let dag_sizes = [ 64; 112; 160; 208; 256 ]
let dag_replicates = 5

let fork_join_widths ~rng n =
  let stages = 4 in
  let w = Array.make stages ((n - stages - 1) / stages) in
  w.(0) <- w.(0) + ((n - stages - 1) mod stages);
  (* move single tasks between stages so the stage widths vary *)
  for _ = 1 to n / 4 do
    let a = Rng.int rng stages and b = Rng.int rng stages in
    if w.(a) > 1 then begin
      w.(a) <- w.(a) - 1;
      w.(b) <- w.(b) + 1
    end
  done;
  Array.to_list w

let dag_instances ~seed =
  let rng = Rng.create seed in
  let spec = Generators.default_spec in
  List.concat_map
    (fun (n, r) ->
      let make family g =
        { label = Printf.sprintf "%s-n%d-%d" family n r;
          g;
          cfg =
            Config.make ~deadline:(Generators.feasible_deadline g ~slack:0.6) ();
          polish = true;
          pin = None }
      in
      [ make "forkjoin"
          (Generators.fork_join ~rng ~spec ~widths:(fork_join_widths ~rng n));
        make "layered"
          (Generators.layered ~rng ~spec ~layers:(n / 8) ~width:8 ~edge_prob:0.3);
        make "random"
          (Generators.random_dag ~rng ~spec ~n ~edge_prob:(4.0 /. float_of_int n))
      ])
    (List.concat_map
       (fun n -> List.init dag_replicates (fun r -> (n, r)))
       dag_sizes)

type solved = { iterate : Iterate.result; final : Iterate.result }

let solve inst =
  let r = Iterate.run inst.cfg inst.g in
  { iterate = r;
    final = (if inst.polish then Polish.polish inst.cfg inst.g r else r) }

let same_result (a : Iterate.result) (b : Iterate.result) =
  same_bits a.Iterate.sigma b.Iterate.sigma
  && same_bits a.Iterate.finish b.Iterate.finish
  && a.Iterate.schedule.Schedule.sequence = b.Iterate.schedule.Schedule.sequence
  && Assignment.equal a.Iterate.schedule.Schedule.assignment
       b.Iterate.schedule.Schedule.assignment

(* A first solve is accepted as the reference of an unpinned instance
   only if it is a valid schedule that meets the deadline and whose
   sigma re-costs to the reported value. *)
let valid inst (r : Iterate.result) =
  let s = r.Iterate.schedule in
  match
    Schedule.make inst.g ~sequence:s.Schedule.sequence
      ~assignment:s.Schedule.assignment
  with
  | exception Invalid_argument _ -> false
  | s ->
      Schedule.meets_deadline inst.g s ~deadline:inst.cfg.Config.deadline
      && same_bits r.Iterate.sigma
           (Schedule.battery_cost ~model:inst.cfg.Config.model inst.g s)

(* [check] remembers the first result of each unpinned instance. *)
let checker () =
  let refs = Hashtbl.create 16 in
  fun inst (r : Iterate.result) ->
    match inst.pin with
    | Some (sigma, finish) ->
        same_bits r.Iterate.sigma sigma && same_bits r.Iterate.finish finish
    | None -> (
        match Hashtbl.find_opt refs inst.label with
        | Some first -> same_result first r
        | None ->
            let ok = valid inst r in
            if ok then Hashtbl.add refs inst.label r;
            ok)

(* The order of one pass over the instances, drawn from the seed. *)
let pass_order ~rng n =
  let a = Array.init n Fun.id in
  Rng.shuffle rng a;
  a

(* --- traced replay --------------------------------------------------- *)

(* Replays one recorded solve through the layers' public entry points,
   in the order [Iterate.run] calls them, and checks after every span
   that it reproduced the recorded sequences, assignments and sigmas.
   [Window.evaluate] is timed as one span per iteration.  Its calls into
   Choose and the battery model happen inside the library, so the same
   sweep is then rebuilt call by call from [Window.initial_window_start],
   [Choose.choose_design_points] and [Schedule.battery_cost] under a
   "sweep" span of its own: its "choose" and "sweep.sigma" spans split
   the window time, and the run leaves the sweep out of its traced wall
   time. *)
let same_window (a : Window.window_result) (b : Window.window_result) =
  a.Window.window_start = b.Window.window_start
  && Assignment.equal a.Window.assignment b.Window.assignment
  && same_bits a.Window.sigma b.Window.sigma
  && same_bits a.Window.finish b.Window.finish

let sweep tr cfg g ~sequence (recorded : Window.t) =
  let model = cfg.Config.model in
  let start = Window.initial_window_start cfg g in
  require (List.length recorded.Window.per_window = start + 1) "window count";
  List.iteri
    (fun k (r : Window.window_result) ->
      let ws = start - k in
      let assignment =
        Trace.span tr "choose" (fun () ->
            Choose.choose_design_points cfg g ~sequence ~window_start:ws)
      in
      let sched = Schedule.make g ~sequence ~assignment in
      let sigma =
        Trace.span tr "sweep.sigma" (fun () -> Schedule.battery_cost ~model g sched)
      in
      require
        (same_window r
           { Window.window_start = ws; assignment; sigma;
             finish = Schedule.finish_time g sched })
        "window result")
    recorded.Window.per_window

let replay tr inst (rec_ : solved) =
  let cfg = inst.cfg and g = inst.g in
  let model = cfg.Config.model in
  let initial =
    Trace.span tr "priorities" (fun () -> Priorities.sequence_dec_energy g)
  in
  let inc = ref (Float.infinity, initial, Assignment.all_lowest_power g) in
  let improve (s, q, a) =
    let s0, _, _ = !inc in
    if s < s0 then inc := (s, q, a)
  in
  let sequence = ref initial in
  List.iter
    (fun (it : Iterate.iteration) ->
      require (it.Iterate.sequence = !sequence) "iteration sequence";
      let w =
        Trace.span tr "window" (fun () -> Window.evaluate cfg g ~sequence:!sequence)
      in
      let recorded = it.Iterate.windows in
      require
        (List.equal same_window w.Window.per_window recorded.Window.per_window
        && same_window w.Window.best recorded.Window.best)
        "window sweep";
      Trace.span tr "sweep" (fun () -> sweep tr cfg g ~sequence:!sequence recorded);
      improve (w.Window.best.Window.sigma, !sequence, w.Window.best.Window.assignment);
      let _, _, inc_assignment = !inc in
      let weighted =
        Trace.span tr "priorities" (fun () ->
            Priorities.weighted_sequence g inc_assignment)
      in
      require (weighted = it.Iterate.weighted_sequence) "weighted sequence";
      let sched = Schedule.make g ~sequence:weighted ~assignment:inc_assignment in
      let wsigma =
        Trace.span tr "sigma" (fun () -> Schedule.battery_cost ~model g sched)
      in
      require (same_bits wsigma it.Iterate.weighted_sigma) "weighted sigma";
      improve (wsigma, weighted, inc_assignment);
      let s, _, _ = !inc in
      require (same_bits s it.Iterate.min_sigma) "incumbent sigma";
      sequence := weighted)
    rec_.iterate.Iterate.iterations;
  let s, _, _ = !inc in
  require (same_bits s rec_.iterate.Iterate.sigma) "solve sigma";
  if inst.polish then begin
    let p =
      Trace.span tr "polish" (fun () -> Polish.polish cfg g rec_.iterate)
    in
    require (same_result p rec_.final) "polish result"
  end

(* Work counts of one pass over the instances, read on a fresh domain:
   the program's own counters for the untraced solves, then the number
   of calls the replay makes into each layer. *)
type counts = {
  dpf_steps : int;
  sigma_evals : int;
  contrib_hits : int;
  contrib_misses : int;
  delta_commits : int;
  window_calls : int;
  choose_calls : int;
  priorities_calls : int;
}

let pass_counts instances =
  on_fresh_domain (fun () ->
      let recorded = List.map (fun inst -> (inst, solve inst)) instances in
      let p = Probe.local () in
      let c =
        { dpf_steps = p.Probe.dpf_steps;
          sigma_evals = p.Probe.sigma_evals;
          contrib_hits = p.Probe.contrib_hits;
          contrib_misses = p.Probe.contrib_misses;
          delta_commits = p.Probe.delta_commits;
          window_calls = 0;
          choose_calls = 0;
          priorities_calls = 0 }
      in
      let tr = Trace.create () in
      List.iter (fun (inst, r) -> replay tr inst r) recorded;
      let calls = Trace.self_times tr in
      { c with
        window_calls = fst (calls "window");
        choose_calls = fst (calls "choose");
        priorities_calls = fst (calls "priorities") })

(* --- the workload ---------------------------------------------------- *)

let run ~instances ~seed ~seconds ~trace =
  let rng = Rng.create seed in
  let insts, setup_s =
    timed_setup
      ~setup:(fun () ->
        let insts = Array.of_list (instances ()) in
        (* warm-up: one solve of the first instance *)
        ignore (solve insts.(0));
        insts)
      ~discard:ignore
  in
  let n = Array.length insts in
  let check = checker () in
  let lat = Samples.create ~capacity:(1 lsl 18) () in
  (* the instance of each sample, as a float, for per-instance medians *)
  let inst_of = Samples.create ~capacity:(1 lsl 18) () in
  let failed = ref 0 and attempted = ref 0 in
  let tr = Trace.create () in
  let record_ms = ref 0.0 and replay_ms = ref 0.0 and minor = ref 0.0 in
  let budget = seconds *. 1e9 in
  let t_start = now_ns () in
  (* solves run in passes over the instances, each pass in an order
     drawn from the seed; the loop stops at the first solve past the
     budget, once every instance has run *)
  let order = ref [||] and pos = ref n and passes = ref 0 in
  (* samples up to the end of the last complete pass: the timings count
     every instance equally often, so the mix does not vary with where
     the budget ran out *)
  let full = ref 0 in
  while !passes = 0 || now_ns () -. t_start < budget do
    if !pos = n then begin
      order := pass_order ~rng n;
      pos := 0
    end;
    let i = !order.(!pos) in
    incr pos;
    if !pos = n then incr passes;
    let inst = insts.(i) in
    Speed.maybe_sample ();
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let r = solve inst in
    let dt = ms_since t0 in
    minor := !minor +. (Gc.minor_words () -. w0);
    let f = Speed.factor () in
    Samples.add lat (dt *. f);
    Samples.add inst_of (float_of_int i);
    if !pos = n then full := Samples.count lat;
    incr attempted;
    if not (check inst r.final) then incr failed;
    if trace then begin
      record_ms := !record_ms +. dt;
      let t1 = now_ns () in
      replay tr inst r;
      replay_ms := !replay_ms +. ms_since t1
    end
  done;
  let lats = Array.sub (Samples.to_array lat) 0 !full in
  (* throughput of a pass at each instance's median solve time, which a
     burst of interference on the machine does not move *)
  let pass_ms =
    let groups = Array.make n [] in
    Array.iteri
      (fun k i ->
        let i = int_of_float i in
        groups.(i) <- lats.(k) :: groups.(i))
      (Array.sub (Samples.to_array inst_of) 0 !full);
    Array.fold_left (fun a g -> a +. median (Array.of_list g)) 0.0 groups
  in
  let solves = float_of_int !attempted in
  let detail =
    [ ("solves", solves);
      ("timed_solves", float_of_int !full);
      ("fail_share", float_of_int !failed /. solves) ]
  in
  let metrics, detail =
    if not trace then
      let metrics, more =
        end_to_end ~setup_s
          ~ops_per_s:(float_of_int n /. (pass_ms *. 1e-3))
          ~lats
          ~goodput:(float_of_int (!attempted - !failed) /. solves)
      in
      (metrics, detail @ more)
    else begin
      Trace.write tr (out_path "trace-paper.tsv");
      let c1 = pass_counts (Array.to_list insts) in
      let c2 = pass_counts (Array.to_list insts) in
      let exact = c1 = c2 in
      let self = Trace.self_times tr in
      let ms label = snd (self label) in
      let window = ms "window" and choose = ms "choose" and sweep_sigma = ms "sweep.sigma" in
      (* the rebuilt sweep must take about as long as Window.evaluate, or
         it does not stand for the same work *)
      let sweep_share = (choose +. sweep_sigma) /. window in
      require (sweep_share > 0.5 && sweep_share < 1.5) "rebuilt sweep time";
      let traced_ms = !replay_ms -. (ms "sweep" +. choose +. sweep_sigma) in
      let covered = window +. ms "sigma" +. ms "priorities" +. ms "polish" in
      let per_solve x = x /. solves in
      let fi = float_of_int in
      [ m "window.self_ms" "ms" (per_solve (window -. choose -. sweep_sigma));
        m "window.calls" "count" (fi c1.window_calls);
        m "choose.ms" "ms" (per_solve choose);
        m "choose.calls" "count" (fi c1.choose_calls);
        m "count.dpf_steps" "count" (fi c1.dpf_steps);
        m "priorities.ms" "ms" (per_solve (ms "priorities"));
        m "priorities.calls" "count" (fi c1.priorities_calls);
        m "sigma.ms" "ms" (per_solve (sweep_sigma +. ms "sigma"));
        m "count.sigma_evals" "count" (fi c1.sigma_evals);
        m "count.contrib_hit_rate" "share"
          (fi c1.contrib_hits /. fi (Stdlib.max 1 (c1.contrib_hits + c1.contrib_misses)));
        m "polish.ms" "ms" (per_solve (ms "polish"));
        m "count.delta_commits" "count" (fi c1.delta_commits);
        m "count.exact" "bool" (if exact then 1.0 else 0.0);
        m "unexplained_share" "share" ((traced_ms -. covered) /. traced_ms);
        m "trace_overhead_share" "share" ((traced_ms -. !record_ms) /. !record_ms);
        m "alloc.minor_words_per_op" "words/op" (!minor /. solves) ],
      detail @ [ ("window.sweep_share", sweep_share) ]
    end
  in
  { attempted = !attempted; failed = !failed; metrics; detail }
