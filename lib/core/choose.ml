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
   arrays: design-point tables, the energy rank, the column times and
   the ENR/CR bounds.
   A graph is immutable, so the tables are built once per graph and kept
   in a one-entry cache per domain, keyed on physical equality — the
   loop, [Window.evaluate] and [Polish] call Choose thousands of times
   on the same graph.  Each pool domain owns its entry, so no lock. *)
type tables = {
  dur : float array array;    (* dur.(task).(col), from [Task.point] *)
  cur : float array array;
  energy : float array array; (* current *. voltage *. duration *)
  rank : int array;           (* task -> place in increasing average energy *)
  column_time : float array;  (* [Analysis.column_time] of each column *)
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
    column_time = Array.init m (Analysis.column_time g);
    emin;
    emax;
    imin;
    imax }

(* a workspace's tables before its domain's first call *)
let no_tables =
  { dur = [||];
    cur = [||];
    energy = [||];
    rank = [||];
    column_time = [||];
    emin = 0.0;
    emax = 0.0;
    imin = 0.0;
    imax = 0.0 }

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
   the slots of the two tasks whose state changed (DESIGN.md §9).

   The context is a per-domain workspace: its arrays grow on demand and
   are reset by {!prepare} at the start of each call, so a call
   allocates only its result.  Each pool domain owns its workspace. *)
type ctx = {
  mutable tb : tables;
  mutable n : int;
  mutable lowest : int;
  mutable window_start : int;
  mutable span : int;         (* S: upgrade steps per free task *)
  mutable seq : int array;
  mutable pos_of : int array; (* task -> position in [seq] *)
  mutable cols : int array;   (* committed columns of the fixed suffix *)
  (* low_te.(p), low_en.(p): durations and energies of seq.(0..p-1) at
     lowest; low_inc.(p): increasing pairs among them at lowest *)
  mutable low_te : float array;
  mutable low_en : float array;
  mutable low_inc : int array;
  suf_te : Kahan.Acc.t;       (* committed suffix durations *)
  suf_en : Kahan.Acc.t;
  mutable size : int;
  mutable dt : float array;
  mutable de : float array;
  mutable cnt : int array;
  mutable cif : int array;
  (* float state in one flat array, so updating it boxes nothing;
     slots named below *)
  fl : float array;
  mutable pre_len : int;      (* slots in the last descent's prefix *)
  mutable pre_cnt : int;      (* live slots in it: the applied step count *)
  mutable pre_cif : int;
  mutable committed_inc : int; (* increasing pairs in the fixed suffix *)
  mutable pos : int;          (* tagged position *)
  mutable prev_k : int;       (* applied step count of the previous trial *)
}

let f_deadline = 0
let f_base_te = 1   (* te and energy of all tasks but the tagged *)
let f_base_en = 2
let f_pre_dt = 3    (* dt and de of the last descent's prefix *)
let f_pre_de = 4
let f_te_entry = 5  (* the trial's time with no free task upgraded *)
let f_enr = 6       (* the last trial's metrics *)
let f_cif = 7
let f_dpf = 8
let f_best = 9      (* least B of the column pick so far *)

let workspace : ctx Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { tb = no_tables;
        n = 0;
        lowest = 0;
        window_start = 0;
        span = 0;
        seq = [||];
        pos_of = [||];
        cols = [||];
        low_te = [||];
        low_en = [||];
        low_inc = [||];
        suf_te = Kahan.Acc.create ();
        suf_en = Kahan.Acc.create ();
        size = 0;
        dt = [||];
        de = [||];
        cnt = [||];
        cif = [||];
        fl = Array.make 10 0.0;
        pre_len = 0;
        pre_cnt = 0;
        pre_cif = 0;
        committed_inc = 0;
        pos = 0;
        prev_k = 0 })

(* Typed at float: an unannotated [>] here is the polymorphic compare,
   which boxes both currents on every call. *)
let[@inline] inc (a : float) (b : float) = if b > a then 1 else 0

(* Load the calling domain's workspace with one call's sequence and
   window, growing any array that is too short. *)
let prepare (cfg : Config.t) g ~seq ~window_start =
  let c = Domain.DLS.get workspace in
  let tb = tables g in
  let n = Graph.num_tasks g and m = Graph.num_points g in
  let lowest = m - 1 in
  let span = lowest - window_start in
  let rec pow2 k = if k >= n * span then k else pow2 (2 * k) in
  let size = pow2 1 in
  if Array.length c.pos_of < n then begin
    c.pos_of <- Array.make n 0;
    c.cols <- Array.make n 0;
    c.low_te <- Array.make (n + 1) 0.0;
    c.low_en <- Array.make (n + 1) 0.0;
    c.low_inc <- Array.make (n + 1) 0
  end;
  if Array.length c.dt < 2 * size then begin
    c.dt <- Array.make (2 * size) 0.0;
    c.de <- Array.make (2 * size) 0.0;
    c.cnt <- Array.make (2 * size) 0;
    c.cif <- Array.make (2 * size) 0
  end;
  c.tb <- tb;
  c.n <- n;
  c.lowest <- lowest;
  c.window_start <- window_start;
  c.span <- span;
  c.seq <- seq;
  c.size <- size;
  c.fl.(f_deadline) <- cfg.Config.deadline;
  Array.fill c.cols 0 n lowest;
  let pos_of = c.pos_of and low_te = c.low_te and low_en = c.low_en in
  let low_inc = c.low_inc in
  let te = c.suf_te and en = c.suf_en in
  Kahan.Acc.reset te;
  Kahan.Acc.reset en;
  low_te.(0) <- 0.0;
  low_en.(0) <- 0.0;
  low_inc.(0) <- 0;
  for p = 0 to n - 1 do
    let t = seq.(p) in
    pos_of.(t) <- p;
    Kahan.Acc.add te tb.dur.(t).(lowest);
    Kahan.Acc.add en tb.energy.(t).(lowest);
    low_te.(p + 1) <- Kahan.Acc.sum te;
    low_en.(p + 1) <- Kahan.Acc.sum en;
    low_inc.(p + 1) <-
      low_inc.(p)
      + (if p = 0 then 0
         else inc tb.cur.(seq.(p - 1)).(lowest) tb.cur.(t).(lowest))
  done;
  Kahan.Acc.reset te;
  Kahan.Acc.reset en;
  (* leaves past the last live task stay zero; [build] writes the rest *)
  let used = size + (n * span) in
  Array.fill c.dt used (2 * size - used) 0.0;
  Array.fill c.de used (2 * size - used) 0.0;
  Array.fill c.cnt used (2 * size - used) 0;
  Array.fill c.cif used (2 * size - used) 0;
  c.pre_len <- 0;
  c.pre_cnt <- 0;
  c.pre_cif <- 0;
  c.committed_inc <- 0;
  c.pos <- 0;
  c.prev_k <- 0;
  c

(* Metrics.current_ratio over the precomputed range. *)
let[@inline] current_ratio c i =
  if c.tb.imax -. c.tb.imin <= 0.0 then 0.0
  else (i -. c.tb.imin) /. (c.tb.imax -. c.tb.imin)

let pull c k =
  let l = 2 * k and r = (2 * k) + 1 in
  c.dt.(k) <- c.dt.(l) +. c.dt.(r);
  c.de.(k) <- c.de.(l) +. c.de.(r);
  c.cnt.(k) <- c.cnt.(l) + c.cnt.(r);
  c.cif.(k) <- c.cif.(l) + c.cif.(r)

(* Current of free partner [v] while the task of rank [r] moves: lower
   ranks already sit at the window edge, the rest at the lowest column. *)
let[@inline] partner c v ~r =
  c.tb.cur.(v).(if c.tb.rank.(v) < r then c.window_start else c.lowest)

(* Increasing pairs task [q] (at position [p], current [i]) forms with
   its free neighbours. *)
let[@inline] incs c ~p ~pos ~r i =
  (if p > 0 then inc (partner c c.seq.(p - 1) ~r) i else 0)
  + if p + 1 < pos then inc i (partner c c.seq.(p + 1) ~r) else 0

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
    let d = tb.dur.(q) and e = tb.energy.(q) and cu = tb.cur.(q) in
    for s = 0 to c.span - 1 do
      let col = c.lowest - s and k = base + s in
      c.dt.(k) <- d.(col - 1) -. d.(col);
      c.de.(k) <- e.(col - 1) -. e.(col);
      c.cnt.(k) <- 1;
      c.cif.(k) <- incs c ~p ~pos ~r cu.(col - 1) - incs c ~p ~pos ~r cu.(col)
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
  c.fl.(f_base_te) <- Kahan.Acc.sum c.suf_te +. c.low_te.(pos);
  c.fl.(f_base_en) <- Kahan.Acc.sum c.suf_en +. c.low_en.(pos)

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

(* The smallest applied prefix with [te_entry +. dt <= d +. eps], for
   the [te_entry] slot, left in [pre*]; the whole tree if none meets the
   deadline.  Returns whether the deadline is met. *)
let descend c =
  let fl = c.fl in
  let te_entry = fl.(f_te_entry) in
  let limit = fl.(f_deadline) +. eps in
  if te_entry <= limit then begin
    c.pre_len <- 0;
    fl.(f_pre_dt) <- 0.0;
    fl.(f_pre_de) <- 0.0;
    c.pre_cnt <- 0;
    c.pre_cif <- 0;
    true
  end
  else if not (te_entry +. c.dt.(1) <= limit) then begin
    c.pre_len <- c.size;
    fl.(f_pre_dt) <- c.dt.(1);
    fl.(f_pre_de) <- c.de.(1);
    c.pre_cnt <- c.cnt.(1);
    c.pre_cif <- c.cif.(1);
    false
  end
  else begin
    (* the running prefix sums live in the [pre*] slots *)
    fl.(f_pre_dt) <- 0.0;
    fl.(f_pre_de) <- 0.0;
    c.pre_cnt <- 0;
    c.pre_cif <- 0;
    let k = ref 1 in
    while !k < c.size do
      let l = 2 * !k in
      if te_entry +. (fl.(f_pre_dt) +. c.dt.(l)) <= limit then k := l
      else begin
        fl.(f_pre_dt) <- fl.(f_pre_dt) +. c.dt.(l);
        fl.(f_pre_de) <- fl.(f_pre_de) +. c.de.(l);
        c.pre_cnt <- c.pre_cnt + c.cnt.(l);
        c.pre_cif <- c.pre_cif + c.cif.(l);
        k := l + 1
      end
    done;
    let leaf = !k in
    c.pre_len <- leaf - c.size + 1;
    fl.(f_pre_dt) <- fl.(f_pre_dt) +. c.dt.(leaf);
    fl.(f_pre_de) <- fl.(f_pre_de) +. c.de.(leaf);
    c.pre_cnt <- c.pre_cnt + c.cnt.(leaf);
    c.pre_cif <- c.pre_cif + c.cif.(leaf);
    true
  end

(* Column of free task [q] in the last descent's completion. *)
let free_col c q =
  let applied = c.pre_len - (c.tb.rank.(q) * c.span) in
  c.lowest - Int.max 0 (Int.min c.span applied)

(* Evaluate the tagged task at column [j]: one descent, O(log n).
   Leaves enr, cif and dpf of the hypothetical completion in their
   slots. *)
let trial c ~j =
  let tb = c.tb and pos = c.pos and n = c.n and fl = c.fl in
  let t = c.seq.(pos) in
  fl.(f_te_entry) <- fl.(f_base_te) +. tb.dur.(t).(j);
  let feasible = descend c in
  (* work counter: the rise in the applied step count since the
     previous trial, i.e. the steps a forward walk would apply *)
  let k = c.pre_cnt in
  if k > c.prev_k then begin
    let probe = Probe.local () in
    probe.Probe.dpf_steps <- probe.Probe.dpf_steps + (k - c.prev_k)
  end;
  c.prev_k <- k;
  fl.(f_enr) <-
    (if tb.emax -. tb.emin <= 0.0 then 0.0
     else
       (fl.(f_base_en) +. tb.energy.(t).(j) +. fl.(f_pre_de) -. tb.emin)
       /. (tb.emax -. tb.emin));
  fl.(f_cif) <-
    (if n <= 1 then 0.0
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
     end);
  fl.(f_dpf) <-
    (if not feasible then Float.infinity
     else if pos = 0 then
       Metrics.slack_ratio ~deadline:fl.(f_deadline)
         ~time:(fl.(f_te_entry) +. fl.(f_pre_dt))
     else if c.span = 0 then 0.0
     else float_of_int k /. float_of_int c.span /. float_of_int pos)

let calculate_dpf (cfg : Config.t) g ~sequence ~assignment ~tagged_pos
    ~window_start =
  let c = prepare cfg g ~seq:sequence ~window_start in
  let cols = c.cols in
  for i = 0 to c.n - 1 do
    cols.(i) <- Assignment.column assignment i
  done;
  for pos = 0 to tagged_pos - 1 do
    if cols.(c.seq.(pos)) <> c.lowest then
      invalid_arg "Choose.calculate_dpf: free task not at the lowest-power column"
  done;
  build c ~pos:(c.n - 1);
  enter c ~pos:(c.n - 1);
  while c.pos > tagged_pos do
    commit c ~col:cols.(c.seq.(c.pos))
  done;
  trial c ~j:cols.(c.seq.(tagged_pos));
  let hypothetical =
    Assignment.init g (fun q ->
        if c.pos_of.(q) < tagged_pos then free_col c q else cols.(q))
  in
  { enr = c.fl.(f_enr); cif = c.fl.(f_cif); dpf = c.fl.(f_dpf); hypothetical }

let[@inline] suitability (cfg : Config.t) ~sr ~cr ~enr ~cif ~dpf =
  if dpf = Float.infinity then Float.infinity
  else begin
    let w = cfg.Config.weights in
    (w.Config.sr *. sr) +. (w.Config.cr *. cr)
    +. (w.Config.enr *. enr)
    +. (w.Config.cif *. cif)
    +. (w.Config.dpf *. dpf)
  end

(* The selection proper, on a validated sequence. *)
let select (cfg : Config.t) g ~seq ~window_start =
  let c = prepare cfg g ~seq ~window_start in
  let n = c.n and dur = c.tb.dur and fl = c.fl in
  let d = cfg.Config.deadline in
  let lowest = c.lowest in
  (* The paper fixes the last task at the lowest-power column outright
     ("S(n,m) = 1"), which can bust a tight deadline before selection
     even starts.  We take the slowest column that leaves the rest of
     the sequence feasible at the window's fastest column — identical
     to the paper whenever its own examples apply (see DESIGN.md).
     The sum borrows [suf_te], which [prepare] left zeroed. *)
  let last = seq.(n - 1) in
  for pos = 0 to n - 2 do
    Kahan.Acc.add c.suf_te dur.(seq.(pos)).(window_start)
  done;
  let rest_fastest = Kahan.Acc.sum c.suf_te in
  Kahan.Acc.reset c.suf_te;
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
    let best = ref (-1) in
    for j = lowest downto window_start do
      let ttemp = !tsum +. dur.(t).(j) in
      let sr = Metrics.slack_ratio ~deadline:d ~time:ttemp in
      let cr = current_ratio c c.tb.cur.(t).(j) in
      trial c ~j;
      let b =
        suitability cfg ~sr ~cr ~enr:fl.(f_enr) ~cif:fl.(f_cif) ~dpf:fl.(f_dpf)
      in
      (* strict improvement only: ties keep the lower-power column *)
      if b < Float.infinity && (!best < 0 || b < fl.(f_best)) then begin
        best := j;
        fl.(f_best) <- b
      end
    done;
    if !best < 0 then raise Config.Deadline_unmeetable;
    commit c ~col:!best;
    tsum := !tsum +. dur.(t).(!best)
  done;
  Assignment.init g (Array.get c.cols)

let column_time g j =
  if j < 0 || j >= Graph.num_points g then
    invalid_arg "Choose.column_time: column out of range";
  (tables g).column_time.(j)

let unsafe_choose (cfg : Config.t) g ~seq ~window_start =
  Batsched_obs.Sink.with_span cfg.Config.obs "choose" @@ fun () ->
  let probe = Probe.local () in
  probe.Probe.choose_calls <- probe.Probe.choose_calls + 1;
  if not (Batsched_obs.Events.is_active cfg.Config.events) then
    select cfg g ~seq ~window_start
  else begin
    (* convergence record per call: attribute the upgrade-loop work
       (dpf_steps delta) to this window *)
    let dpf0 = probe.Probe.dpf_steps in
    Fun.protect ~finally:(fun () ->
        Batsched_obs.Events.emit cfg.Config.events "choose"
          [ ("window_start", Batsched_obs.Events.I window_start);
            ("dpf_steps", Batsched_obs.Events.I (probe.Probe.dpf_steps - dpf0))
          ])
    @@ fun () -> select cfg g ~seq ~window_start
  end

let choose_design_points (cfg : Config.t) g ~sequence ~window_start =
  let m = Graph.num_points g in
  if window_start < 0 || window_start >= m then
    invalid_arg "Choose.choose_design_points: window out of range";
  if not (Analysis.is_topological g sequence) then
    invalid_arg "Choose.choose_design_points: invalid sequence";
  unsafe_choose cfg g ~seq:(Array.of_list sequence) ~window_start
