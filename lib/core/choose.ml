open Batsched_taskgraph
open Batsched_sched
open Batsched_numeric

type dpf_result = {
  enr : float;
  cif : float;
  dpf : float;
  hypothetical : Assignment.t;
}

let eps = 1e-9

(* --- per-graph tables ---

   Everything [CalculateDPF] reads about the graph itself, as flat
   arrays: design-point tables, the energy rank and the ENR/CR bounds.
   A graph is immutable, so the tables are built once per graph and kept
   in a one-entry cache per domain, keyed on physical equality — the
   loop, [Window.evaluate] and [Polish] call Choose thousands of times
   on the same graph.  Each pool domain owns its entry, so no lock. *)
type tables = {
  dur : float array array;    (* dur.(task).(col), from [Task.point] *)
  cur : float array array;
  energy : float array array; (* current *. voltage *. duration *)
  rank : int array;           (* task -> place in increasing average energy *)
  emin : float;
  emax : float;
  imin : float;
  imax : float;
}

let make_tables g =
  let n = Graph.num_tasks g and m = Graph.num_points g in
  let table f =
    Array.init n (fun i -> Array.init m (fun j -> f (Task.point (Graph.task g i) j)))
  in
  let rank = Array.make n 0 in
  List.iteri (fun r t -> rank.(t) <- r) (Analysis.energy_vector g);
  let emin, emax = Analysis.energy_bounds g in
  let imin, imax = Analysis.current_range g in
  { dur = table (fun p -> p.Task.duration);
    cur = table (fun p -> p.Task.current);
    energy = table (fun p -> p.Task.current *. p.Task.voltage *. p.Task.duration);
    rank;
    emin;
    emax;
    imin;
    imax }

let cache : (Graph.t * tables) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let tables g =
  match Domain.DLS.get cache with
  | Some (g', tb) when g' == g -> tb
  | _ ->
      let tb = make_tables g in
      Domain.DLS.set cache (Some (g, tb));
      tb

(* --- the carried hypothetical completion ---

   With the tagged task at position [pos], every free task (position
   below [pos]) starts parked at the lowest-power column and the paper's
   upgrade loop moves them one column at a time, in increasing
   average-energy order, down to the window edge.  With S = m-1-ws, the
   task of energy rank r owns the fixed slots r*S .. r*S+S-1 of that
   schedule; slot s is its step from column lowest-s to lowest-s-1.  A
   slot is live iff its task is free; dead slots hold zeros.  Whatever
   the trial column, the hypothetical completion is the smallest applied
   prefix of slots that meets the deadline.

   Each leaf holds the step's duration and energy deltas, a live count,
   and the step's change to the current-increase count of the
   free-prefix pairs: when rank r moves, every free partner of lower
   rank already sits at the window edge and every other one still at
   the lowest column.  A segment tree over the slots (root 1, leaves
   [size, 2*size)) keeps child sums in each node, recomputed from the
   children on update so nothing drifts; one root-to-leaf descent per
   trial finds the prefix.  Moving to the next position rewrites only
   the slots of the two tasks whose state changed (DESIGN.md §9). *)
type ctx = {
  tb : tables;
  n : int;
  lowest : int;
  window_start : int;
  span : int;                 (* S: upgrade steps per free task *)
  deadline : float;
  seq : int array;
  pos_of : int array;         (* task -> position in [seq] *)
  cols : int array;           (* committed columns of the fixed suffix *)
  low_te : float array;       (* low_te.(p): seq.(0..p-1) durations at lowest *)
  low_en : float array;       (* same for energies *)
  low_inc : int array;        (* low_inc.(p): increasing pairs in seq.(0..p-1) at lowest *)
  suf_te : Kahan.Acc.t;       (* committed suffix durations *)
  suf_en : Kahan.Acc.t;
  size : int;
  dt : float array;
  de : float array;
  cnt : int array;
  cif : int array;
  (* float state in arrays, so updating it boxes nothing *)
  base : float array;         (* [| te; energy |] of all tasks but the tagged *)
  pre : float array;          (* [| dt; de |] of the last descent's prefix *)
  mutable pre_len : int;      (* slots in that prefix *)
  mutable pre_cnt : int;      (* live slots in it: the applied step count *)
  mutable pre_cif : int;
  mutable committed_inc : int; (* increasing pairs in the fixed suffix *)
  mutable pos : int;          (* tagged position *)
  mutable prev_k : int;       (* applied step count of the previous trial *)
}

let[@inline] inc a b = if b > a then 1 else 0

let make_ctx (cfg : Config.t) g ~seq ~window_start =
  let tb = tables g in
  let n = Graph.num_tasks g and m = Graph.num_points g in
  let lowest = m - 1 in
  let span = lowest - window_start in
  let pos_of = Array.make n 0 in
  Array.iteri (fun pos t -> pos_of.(t) <- pos) seq;
  let low_te = Array.make (n + 1) 0.0 and low_en = Array.make (n + 1) 0.0 in
  let low_inc = Array.make (n + 1) 0 in
  let te = Kahan.Acc.create () and en = Kahan.Acc.create () in
  Array.iteri
    (fun p t ->
      Kahan.Acc.add te tb.dur.(t).(lowest);
      Kahan.Acc.add en tb.energy.(t).(lowest);
      low_te.(p + 1) <- Kahan.Acc.sum te;
      low_en.(p + 1) <- Kahan.Acc.sum en;
      low_inc.(p + 1) <-
        low_inc.(p)
        + (if p = 0 then 0
           else inc tb.cur.(seq.(p - 1)).(lowest) tb.cur.(t).(lowest)))
    seq;
  let rec pow2 k = if k >= n * span then k else pow2 (2 * k) in
  let size = pow2 1 in
  { tb;
    n;
    lowest;
    window_start;
    span;
    deadline = cfg.Config.deadline;
    seq;
    pos_of;
    cols = Array.make n lowest;
    low_te;
    low_en;
    low_inc;
    suf_te = Kahan.Acc.create ();
    suf_en = Kahan.Acc.create ();
    size;
    dt = Array.make (2 * size) 0.0;
    de = Array.make (2 * size) 0.0;
    cnt = Array.make (2 * size) 0;
    cif = Array.make (2 * size) 0;
    base = Array.make 2 0.0;
    pre = Array.make 2 0.0;
    pre_len = 0;
    pre_cnt = 0;
    pre_cif = 0;
    committed_inc = 0;
    pos = 0;
    prev_k = 0 }

(* Metrics.current_ratio over the precomputed range. *)
let current_ratio c i =
  if c.tb.imax -. c.tb.imin <= 0.0 then 0.0
  else (i -. c.tb.imin) /. (c.tb.imax -. c.tb.imin)

let pull c k =
  let l = 2 * k and r = (2 * k) + 1 in
  c.dt.(k) <- c.dt.(l) +. c.dt.(r);
  c.de.(k) <- c.de.(l) +. c.de.(r);
  c.cnt.(k) <- c.cnt.(l) + c.cnt.(r);
  c.cif.(k) <- c.cif.(l) + c.cif.(r)

(* Write task [q]'s leaves for tagged position [pos]; ancestors are
   left stale. *)
let fill_slots c q ~pos =
  let tb = c.tb in
  let r = tb.rank.(q) in
  let base = c.size + (r * c.span) in
  let p = c.pos_of.(q) in
  if p >= pos then begin
    Array.fill c.dt base c.span 0.0;
    Array.fill c.de base c.span 0.0;
    Array.fill c.cnt base c.span 0;
    Array.fill c.cif base c.span 0
  end
  else begin
    let partner v =
      tb.cur.(v).(if tb.rank.(v) < r then c.window_start else c.lowest)
    in
    let has_left = p > 0 and has_right = p + 1 < pos in
    let cl = if has_left then partner c.seq.(p - 1) else 0.0 in
    let cr = if has_right then partner c.seq.(p + 1) else 0.0 in
    let incs i =
      (if has_left then inc cl i else 0) + if has_right then inc i cr else 0
    in
    let d = tb.dur.(q) and e = tb.energy.(q) and cu = tb.cur.(q) in
    for s = 0 to c.span - 1 do
      let col = c.lowest - s and k = base + s in
      c.dt.(k) <- d.(col - 1) -. d.(col);
      c.de.(k) <- e.(col - 1) -. e.(col);
      c.cnt.(k) <- 1;
      c.cif.(k) <- incs cu.(col - 1) - incs cu.(col)
    done
  end

let build c ~pos =
  for q = 0 to c.n - 1 do
    fill_slots c q ~pos
  done;
  for k = c.size - 1 downto 1 do
    pull c k
  done

(* Rewrite task [q]'s leaves and recompute their ancestors:
   O(S + log n). *)
let refresh c q ~pos =
  if c.span > 0 then begin
    fill_slots c q ~pos;
    let first = c.size + (c.tb.rank.(q) * c.span) in
    let lo = ref (first / 2) and hi = ref ((first + c.span - 1) / 2) in
    while !lo >= 1 do
      for k = !lo to !hi do
        pull c k
      done;
      lo := !lo / 2;
      hi := !hi / 2
    done
  end

(* Stage tagged position [pos]: the tree must already describe it. *)
let enter c ~pos =
  c.pos <- pos;
  c.prev_k <- 0;
  c.base.(0) <- Kahan.Acc.sum c.suf_te +. c.low_te.(pos);
  c.base.(1) <- Kahan.Acc.sum c.suf_en +. c.low_en.(pos)

(* Fix the tagged task at [col] and move on to position pos-1:
   seq.(pos-1) becomes the tagged task, and seq.(pos-2) loses its free
   right-hand partner. *)
let commit c ~col =
  let pos = c.pos in
  let t = c.seq.(pos) in
  let cur = c.tb.cur in
  c.cols.(t) <- col;
  Kahan.Acc.add c.suf_te c.tb.dur.(t).(col);
  Kahan.Acc.add c.suf_en c.tb.energy.(t).(col);
  if pos + 1 < c.n then begin
    let v = c.seq.(pos + 1) in
    c.committed_inc <- c.committed_inc + inc cur.(t).(col) cur.(v).(c.cols.(v))
  end;
  if pos >= 1 then begin
    refresh c c.seq.(pos - 1) ~pos:(pos - 1);
    if pos >= 2 then refresh c c.seq.(pos - 2) ~pos:(pos - 1);
    enter c ~pos:(pos - 1)
  end

(* The smallest applied prefix with [te_entry +. dt <= d +. eps], left
   in [pre*]; the whole tree if none meets the deadline.  Returns
   whether the deadline is met. *)
let descend c ~te_entry =
  let limit = c.deadline +. eps in
  let set len ~dt ~de ~cnt ~cif =
    c.pre_len <- len;
    c.pre.(0) <- dt;
    c.pre.(1) <- de;
    c.pre_cnt <- cnt;
    c.pre_cif <- cif
  in
  if te_entry <= limit then begin
    set 0 ~dt:0.0 ~de:0.0 ~cnt:0 ~cif:0;
    true
  end
  else if not (te_entry +. c.dt.(1) <= limit) then begin
    set c.size ~dt:c.dt.(1) ~de:c.de.(1) ~cnt:c.cnt.(1) ~cif:c.cif.(1);
    false
  end
  else begin
    let k = ref 1 and dt = ref 0.0 and de = ref 0.0 in
    let cnt = ref 0 and cif = ref 0 in
    while !k < c.size do
      let l = 2 * !k in
      if te_entry +. (!dt +. c.dt.(l)) <= limit then k := l
      else begin
        dt := !dt +. c.dt.(l);
        de := !de +. c.de.(l);
        cnt := !cnt + c.cnt.(l);
        cif := !cif + c.cif.(l);
        k := l + 1
      end
    done;
    let leaf = !k in
    set (leaf - c.size + 1) ~dt:(!dt +. c.dt.(leaf)) ~de:(!de +. c.de.(leaf))
      ~cnt:(!cnt + c.cnt.(leaf)) ~cif:(!cif + c.cif.(leaf));
    true
  end

(* Column of free task [q] in the last descent's completion. *)
let free_col c q =
  let applied = c.pre_len - (c.tb.rank.(q) * c.span) in
  c.lowest - Int.max 0 (Int.min c.span applied)

(* Evaluate the tagged task at column [j]: one descent, O(log n).
   Returns (enr, cif, dpf) for the hypothetical completion. *)
let trial c ~j =
  let tb = c.tb and pos = c.pos and n = c.n in
  let t = c.seq.(pos) in
  let te_entry = c.base.(0) +. tb.dur.(t).(j) in
  let feasible = descend c ~te_entry in
  (* work counter: the rise in the applied step count since the
     previous trial, i.e. the steps a forward walk would apply *)
  let k = c.pre_cnt in
  if k > c.prev_k then begin
    let probe = Probe.local () in
    probe.Probe.dpf_steps <- probe.Probe.dpf_steps + (k - c.prev_k)
  end;
  c.prev_k <- k;
  let enr =
    if tb.emax -. tb.emin <= 0.0 then 0.0
    else
      (c.base.(1) +. tb.energy.(t).(j) +. c.pre.(1) -. tb.emin)
      /. (tb.emax -. tb.emin)
  in
  let cif =
    if n <= 1 then 0.0
    else begin
      let ct = tb.cur.(t).(j) in
      let right =
        if pos + 1 < n then
          let v = c.seq.(pos + 1) in
          inc ct tb.cur.(v).(c.cols.(v))
        else 0
      in
      let left =
        if pos > 0 then
          let v = c.seq.(pos - 1) in
          inc tb.cur.(v).(free_col c v) ct
        else 0
      in
      float_of_int
        (c.committed_inc + c.low_inc.(pos) + c.pre_cif + left + right)
      /. float_of_int (n - 1)
    end
  in
  let dpf =
    if not feasible then Float.infinity
    else if pos = 0 then
      Metrics.slack_ratio ~deadline:c.deadline ~time:(te_entry +. c.pre.(0))
    else if c.span = 0 then 0.0
    else float_of_int k /. float_of_int c.span /. float_of_int pos
  in
  (enr, cif, dpf)

let calculate_dpf (cfg : Config.t) g ~sequence ~assignment ~tagged_pos
    ~window_start =
  let c = make_ctx cfg g ~seq:sequence ~window_start in
  let cols = c.cols in
  List.iteri (fun i col -> cols.(i) <- col) (Assignment.to_list assignment);
  for pos = 0 to tagged_pos - 1 do
    if cols.(c.seq.(pos)) <> c.lowest then
      invalid_arg "Choose.calculate_dpf: free task not at the lowest-power column"
  done;
  build c ~pos:(c.n - 1);
  enter c ~pos:(c.n - 1);
  while c.pos > tagged_pos do
    commit c ~col:cols.(c.seq.(c.pos))
  done;
  let enr, cif, dpf = trial c ~j:cols.(c.seq.(tagged_pos)) in
  let hypothetical = Array.copy cols in
  for pos = 0 to tagged_pos - 1 do
    let q = c.seq.(pos) in
    hypothetical.(q) <- free_col c q
  done;
  { enr; cif; dpf; hypothetical = Assignment.of_list g (Array.to_list hypothetical) }

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
  Batsched_obs.Sink.with_span cfg.Config.obs "choose" @@ fun () ->
  let probe = Probe.local () in
  probe.Probe.choose_calls <- probe.Probe.choose_calls + 1;
  (* convergence record per call: attribute the upgrade-loop work
     (dpf_steps delta) to this window *)
  let dpf0 =
    if Batsched_obs.Events.is_active cfg.Config.events then
      probe.Probe.dpf_steps
    else 0
  in
  Fun.protect ~finally:(fun () ->
      if Batsched_obs.Events.is_active cfg.Config.events then
        Batsched_obs.Events.emit cfg.Config.events "choose"
          [ ("window_start", Batsched_obs.Events.I window_start);
            ("dpf_steps", Batsched_obs.Events.I (probe.Probe.dpf_steps - dpf0))
          ])
  @@ fun () ->
  let seq = Array.of_list sequence in
  let c = make_ctx cfg g ~seq ~window_start in
  let n = c.n and dur = c.tb.dur in
  let d = cfg.Config.deadline in
  let lowest = c.lowest in
  (* The paper fixes the last task at the lowest-power column outright
     ("S(n,m) = 1"), which can bust a tight deadline before selection
     even starts.  We take the slowest column that leaves the rest of
     the sequence feasible at the window's fastest column — identical
     to the paper whenever its own examples apply (see DESIGN.md). *)
  let last = seq.(n - 1) in
  let rest_fastest =
    Kahan.sum_fn (n - 1) (fun pos -> dur.(seq.(pos)).(window_start))
  in
  let last_col =
    let rec pick j =
      if j <= window_start then window_start
      else if dur.(last).(j) +. rest_fastest <= d +. 1e-9 then j
      else pick (j - 1)
    in
    pick lowest
  in
  if dur.(last).(last_col) +. rest_fastest > d +. 1e-9 then
    raise Config.Deadline_unmeetable;
  build c ~pos:(n - 1);
  enter c ~pos:(n - 1);
  commit c ~col:last_col;
  let tsum = ref dur.(last).(last_col) in
  for pos = n - 2 downto 0 do
    let t = seq.(pos) in
    let best = ref None in
    for j = lowest downto window_start do
      let ttemp = !tsum +. dur.(t).(j) in
      let sr = Metrics.slack_ratio ~deadline:d ~time:ttemp in
      let cr = current_ratio c c.tb.cur.(t).(j) in
      let enr, cif, dpf = trial c ~j in
      let b = suitability cfg ~sr ~cr ~enr ~cif ~dpf in
      match !best with
      | Some (_, best_b) when best_b <= b -> ()
      | _ -> if b < Float.infinity then best := Some (j, b)
    done;
    match !best with
    | None -> raise Config.Deadline_unmeetable
    | Some (col, _) ->
        commit c ~col;
        tsum := !tsum +. dur.(t).(col)
  done;
  Assignment.of_list g (Array.to_list c.cols)
