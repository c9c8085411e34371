(* The seed ChooseDesignPoints / CalculateDPF: every trial column
   rescans the whole sequence (O(n) sums) and reruns the upgrade loop
   from scratch.  Oracle for [Batsched.Choose], whose production path
   carries the hypothetical completion across tagged positions;
   selection must be identical and the metrics must agree to within
   1e-9.  It bumps the [choose_calls] and [dpf_steps] counters as the
   production path does, so bench rows report the work each path did. *)

open Batsched_numeric
open Batsched_taskgraph
open Batsched_sched
module Config = Batsched.Config

let eps = 1e-9

(* Flat design-point tables for one call, plus the scratch state the
   upgrade loop mutates into the hypothetical completion. *)
type ctx = {
  n : int;
  m : int;
  deadline : float;
  window_start : int;
  seq : int array;
  dur : float array array;
  cur : float array array;
  energy : float array array;
  energy_order : int array;   (* increasing average energy, ties by id *)
  emin : float;
  emax : float;
  imin : float;
  imax : float;
  cols : int array;
  fixed : bool array;
}

let make_ctx (cfg : Config.t) g ~seq ~window_start =
  let n = Graph.num_tasks g and m = Graph.num_points g in
  let table f =
    Array.init n (fun i -> Array.init m (fun j -> f (Task.point (Graph.task g i) j)))
  in
  let emin, emax = Analysis.energy_bounds g in
  let imin, imax = Analysis.current_range g in
  { n;
    m;
    deadline = cfg.Config.deadline;
    window_start;
    seq;
    dur = table (fun p -> p.Task.duration);
    cur = table (fun p -> p.Task.current);
    energy = table (fun p -> p.Task.current *. p.Task.voltage *. p.Task.duration);
    energy_order = Array.of_list (Analysis.energy_vector g);
    emin;
    emax;
    imin;
    imax;
    cols = Array.make n 0;
    fixed = Array.make n false }

let current_ratio ctx i =
  if ctx.imax -. ctx.imin <= 0.0 then 0.0
  else (i -. ctx.imin) /. (ctx.imax -. ctx.imin)

let energy_ratio ctx =
  if ctx.emax -. ctx.emin <= 0.0 then 0.0
  else
    (Kahan.sum_fn ctx.n (fun i -> ctx.energy.(i).(ctx.cols.(i))) -. ctx.emin)
    /. (ctx.emax -. ctx.emin)

let increase_fraction ctx =
  if ctx.n <= 1 then 0.0
  else begin
    let current v = ctx.cur.(v).(ctx.cols.(v)) in
    let count = ref 0 in
    for pos = 1 to ctx.n - 1 do
      if current ctx.seq.(pos) > current ctx.seq.(pos - 1) then incr count
    done;
    float_of_int !count /. float_of_int (ctx.n - 1)
  end

let dpf_static ctx ~tagged_pos =
  if tagged_pos = 0 || ctx.window_start = ctx.m - 1 then 0.0
  else begin
    let span = float_of_int (ctx.m - 1 - ctx.window_start) in
    let weight k = float_of_int (ctx.m - 1 - k) /. span in
    Kahan.sum_fn tagged_pos (fun pos -> weight ctx.cols.(ctx.seq.(pos)))
    /. float_of_int tagged_pos
  end

(* [ctx.cols] holds the tagged state on entry (free prefix at lowest
   power, tagged task at its trial column, suffix committed) and is
   mutated into the hypothetical completion.  Returns (enr, cif, dpf). *)
let evaluate ctx ~tagged_pos =
  let cols = ctx.cols and fixed = ctx.fixed in
  let probe = Probe.local () in
  Array.fill fixed 0 ctx.n true;
  for pos = 0 to tagged_pos - 1 do
    fixed.(ctx.seq.(pos)) <- false
  done;
  let te = ref (Kahan.sum_fn ctx.n (fun i -> ctx.dur.(i).(cols.(i)))) in
  let finish infeasible =
    let dpf =
      if infeasible then Float.infinity
      else if tagged_pos = 0 then
        Metrics.slack_ratio ~deadline:ctx.deadline ~time:!te
      else dpf_static ctx ~tagged_pos
    in
    (energy_ratio ctx, increase_fraction ctx, dpf)
  in
  (* first upgradable free task in increasing-average-energy order *)
  let k = ref 0 in
  let rec candidate () =
    if !k >= ctx.n then None
    else begin
      let q = ctx.energy_order.(!k) in
      if fixed.(q) then begin incr k; candidate () end
      else if cols.(q) <= ctx.window_start then begin
        fixed.(q) <- true;
        incr k;
        candidate ()
      end
      else Some q
    end
  in
  let rec upgrade () =
    if !te <= ctx.deadline +. eps then finish false
    else
      match candidate () with
      | None -> finish true
      | Some q ->
          probe.Probe.dpf_steps <- probe.Probe.dpf_steps + 1;
          let col = cols.(q) in
          te := !te -. ctx.dur.(q).(col) +. ctx.dur.(q).(col - 1);
          cols.(q) <- col - 1;
          if col - 1 = ctx.window_start then fixed.(q) <- true;
          upgrade ()
  in
  upgrade ()

let calculate_dpf (cfg : Config.t) g ~sequence ~assignment ~tagged_pos
    ~window_start =
  let ctx = make_ctx cfg g ~seq:sequence ~window_start in
  List.iteri (fun i col -> ctx.cols.(i) <- col) (Assignment.to_list assignment);
  let enr, cif, dpf = evaluate ctx ~tagged_pos in
  { Batsched.Choose.enr;
    cif;
    dpf;
    hypothetical = Assignment.of_list g (Array.to_list ctx.cols) }

let suitability (cfg : Config.t) ~sr ~cr ~enr ~cif ~dpf =
  if dpf = Float.infinity then Float.infinity
  else begin
    let w = cfg.Config.weights in
    (w.Config.sr *. sr) +. (w.Config.cr *. cr)
    +. (w.Config.enr *. enr)
    +. (w.Config.cif *. cif)
    +. (w.Config.dpf *. dpf)
  end

let choose_design_points (cfg : Config.t) g ~sequence ~window_start =
  let m = Graph.num_points g in
  if window_start < 0 || window_start >= m then
    invalid_arg "Choose.choose_design_points: window out of range";
  if not (Analysis.is_topological g sequence) then
    invalid_arg "Choose.choose_design_points: invalid sequence";
  let probe = Probe.local () in
  probe.Probe.choose_calls <- probe.Probe.choose_calls + 1;
  let seq = Array.of_list sequence in
  let ctx = make_ctx cfg g ~seq ~window_start in
  let n = ctx.n and d = cfg.Config.deadline and lowest = m - 1 in
  let cols = Array.make n lowest in
  (* the last task: slowest column leaving the rest feasible at the
     window's fastest column *)
  let last = seq.(n - 1) in
  let rest_fastest =
    Kahan.sum_fn (n - 1) (fun pos -> ctx.dur.(seq.(pos)).(window_start))
  in
  let rec pick j =
    if j <= window_start then window_start
    else if ctx.dur.(last).(j) +. rest_fastest <= d +. 1e-9 then j
    else pick (j - 1)
  in
  let last_col = pick lowest in
  if ctx.dur.(last).(last_col) +. rest_fastest > d +. 1e-9 then
    raise Config.Deadline_unmeetable;
  cols.(last) <- last_col;
  let tsum = ref ctx.dur.(last).(last_col) in
  for pos = n - 2 downto 0 do
    let t = seq.(pos) in
    let best = ref None in
    for j = lowest downto window_start do
      let sr = Metrics.slack_ratio ~deadline:d ~time:(!tsum +. ctx.dur.(t).(j)) in
      let cr = current_ratio ctx ctx.cur.(t).(j) in
      Array.blit cols 0 ctx.cols 0 n;
      ctx.cols.(t) <- j;
      let enr, cif, dpf = evaluate ctx ~tagged_pos:pos in
      let b = suitability cfg ~sr ~cr ~enr ~cif ~dpf in
      match !best with
      | Some (_, best_b) when best_b <= b -> ()
      | _ -> if b < Float.infinity then best := Some (j, b)
    done;
    match !best with
    | None -> raise Config.Deadline_unmeetable
    | Some (col, _) ->
        cols.(t) <- col;
        tsum := !tsum +. ctx.dur.(t).(col)
  done;
  Assignment.of_list g (Array.to_list cols)
