open Batsched_numeric

(* Mutable delta-evaluation state for one sequential (back-to-back)
   discharge schedule, observed at its makespan.

   Coordinates: position [k] holds an interval [(I_k, D_k)]; its
   suffix time [tail_k = sum_{j>k} D_j] is the load duration between
   the interval's end and the observation instant.  Per
   [Model.incremental], sigma decomposes as [sum_k term (I_k, D_k,
   tail_k)] — so an adjacent swap at [k] perturbs the two terms at
   [k, k+1] (the tails before [k] keep their exact value: the suffix
   multiset is unchanged), and a duration change at position [i]
   perturbs the tails — hence, for a tail-sensitive model, the terms —
   at [0..i] only.

   Numerics: tails and the running totals are compensated
   (Kahan–Neumaier) pairs.  Every stored tail is an exact compensated
   chain over some ordering of the true suffix multiset — moves
   never "patch" a tail arithmetically, they re-derive it from the
   unchanged suffix state — so tail error stays at the one-summation
   level regardless of how many moves committed.  The sigma total is
   delta-updated (remove old terms, add new ones) and re-summed from
   the stored terms every [max 32 n] commits to bound drift.  Agreement
   with the full evaluator is within 1e-9 relative; it is not
   bit-identical, because the full path derives each tail as
   [at - start - duration] in forward coordinates. *)

let[@inline] nadd t c x =
  let s = t +. x in
  let c' =
    if Float.abs t >= Float.abs x then c +. ((t -. s) +. x)
    else c +. ((x -. s) +. t)
  in
  (s, c')

type pending =
  | No_move
  | Keep
    (* candidate is value-identical to the committed state: swapping
       two identical intervals, or setting a position to its current
       values.  Returning the committed sigma bit-for-bit here matters
       for search loops: the full evaluator also yields an exact tie on
       such candidates, and an ulp of delta noise would flip exact
       [e <= cur] comparisons — e.g. making a Metropolis rule consume
       an RNG draw the full path does not. *)
  | Swap of {
      k : int;
      tail_t : float;       (* new suffix sum at position k *)
      tail_c : float;
      term_lo : float;      (* new term at position k *)
      term_hi : float;      (* new term at position k+1 *)
      sig_t : float;
      sig_c : float;
    }
  | Set of {
      pos : int;
      current : float;
      duration : float;
      lo : int;             (* candidate terms live in cterm.(lo..pos) *)
      sig_t : float;
      sig_c : float;
      fin_t : float;
      fin_c : float;
    }
  | Full_swap of { k : int; sigma : float; finish : float }
  | Full_set of {
      pos : int;
      current : float;
      duration : float;
      sigma : float;
      finish : float;
    }

type t = {
  model : Model.t;
  inc : Model.incremental option;
  mutable n : int;
  mutable currents : float array;
  mutable durations : float array;
  (* compensated suffix-duration sums: tail of position k excludes D_k *)
  mutable tail_t : float array;
  mutable tail_c : float array;
  mutable terms : float array;      (* per-position contribution *)
  (* candidate scratch for Set moves *)
  mutable ctail_t : float array;
  mutable ctail_c : float array;
  mutable cterm : float array;
  (* committed totals *)
  mutable sig_t : float;
  mutable sig_c : float;
  mutable fin_t : float;
  mutable fin_c : float;
  mutable commits : int;            (* since the last full re-sum *)
  mutable pending : pending;
}

let create (model : Model.t) =
  { model;
    inc = model.Model.incremental;
    n = 0;
    currents = [||];
    durations = [||];
    tail_t = [||];
    tail_c = [||];
    terms = [||];
    ctail_t = [||];
    ctail_c = [||];
    cterm = [||];
    sig_t = 0.0;
    sig_c = 0.0;
    fin_t = 0.0;
    fin_c = 0.0;
    commits = 0;
    pending = No_move }

let ensure_capacity t n =
  if Array.length t.currents < n then begin
    let cap = ref (Stdlib.max 8 (Array.length t.currents)) in
    while !cap < n do
      cap := !cap * 2
    done;
    t.currents <- Array.make !cap 0.0;
    t.durations <- Array.make !cap 0.0;
    t.tail_t <- Array.make !cap 0.0;
    t.tail_c <- Array.make !cap 0.0;
    t.terms <- Array.make !cap 0.0;
    t.ctail_t <- Array.make !cap 0.0;
    t.ctail_c <- Array.make !cap 0.0;
    t.cterm <- Array.make !cap 0.0
  end

let length t = t.n

let current t i =
  if i < 0 || i >= t.n then invalid_arg "Delta.current: position out of range";
  t.currents.(i)

let duration t i =
  if i < 0 || i >= t.n then invalid_arg "Delta.duration: position out of range";
  t.durations.(i)

let sigma t = t.sig_t +. t.sig_c

let finish t = t.fin_t +. t.fin_c

let check_point current duration =
  if not (Float.is_finite current && Float.is_finite duration) then
    invalid_arg "Delta: non-finite interval field";
  if current < 0.0 then invalid_arg "Delta: negative current";
  if duration < 0.0 then invalid_arg "Delta: negative duration"

(* Fallback for models without an incremental decomposition: cost the
   whole candidate through the model's own sigma.  O(n) per candidate,
   plus a profile allocation — the price of an opaque model. *)
let full_eval t =
  let probe = Probe.local () in
  probe.Probe.delta_full_evals <- probe.Probe.delta_full_evals + 1;
  Probe.bump_named probe ("delta_full_evals/" ^ t.model.Model.name) 1;
  let p =
    Profile.sequential_arrays ~currents:t.currents ~durations:t.durations
      ~pos:0 ~len:t.n
  in
  (Model.sigma_end t.model p, Profile.length p)

let resum t =
  (match t.inc with
  | None -> ()
  | Some _ ->
      let st = ref 0.0 and sc = ref 0.0 in
      for k = 0 to t.n - 1 do
        let a, b = nadd !st !sc t.terms.(k) in
        st := a;
        sc := b
      done;
      t.sig_t <- !st;
      t.sig_c <- !sc);
  t.commits <- 0

let load t ~n ~point =
  if n < 0 then invalid_arg "Delta.load: negative count";
  ensure_capacity t n;
  t.n <- n;
  t.pending <- No_move;
  for i = 0 to n - 1 do
    let current, duration = point i in
    check_point current duration;
    t.currents.(i) <- current;
    t.durations.(i) <- duration
  done;
  (* suffix sums, accumulated from the end; the final state is the
     total duration = the finish time *)
  let tt = ref 0.0 and tc = ref 0.0 in
  for k = n - 1 downto 0 do
    t.tail_t.(k) <- !tt;
    t.tail_c.(k) <- !tc;
    let a, b = nadd !tt !tc t.durations.(k) in
    tt := a;
    tc := b
  done;
  t.fin_t <- !tt;
  t.fin_c <- !tc;
  (match t.inc with
  | Some inc ->
      for k = 0 to n - 1 do
        t.terms.(k) <-
          inc.Model.term ~current:t.currents.(k) ~duration:t.durations.(k)
            ~tail:(t.tail_t.(k) +. t.tail_c.(k))
      done;
      resum t
  | None ->
      let s, f = full_eval t in
      t.sig_t <- s;
      t.sig_c <- 0.0;
      t.fin_t <- f;
      t.fin_c <- 0.0);
  t.commits <- 0

let init model ~n ~point =
  let t = create model in
  load t ~n ~point;
  t

let of_profile model p =
  let ivs = Array.of_list (Profile.intervals p) in
  (* Delta evaluation assumes back-to-back load from t = 0: a profile
     with idle gaps (Profile.with_idle, periodic shapes) has no
     suffix-time decomposition at the makespan, so reject it — callers
     that need gaps must use the full model path. *)
  let clock = ref 0.0 in
  Array.iter
    (fun (iv : Profile.interval) ->
      if Float.abs (iv.Profile.start -. !clock) > 1e-9 then
        invalid_arg "Delta.of_profile: profile has idle gaps";
      clock := iv.Profile.start +. iv.Profile.duration)
    ivs;
  init model ~n:(Array.length ivs) ~point:(fun i ->
      (ivs.(i).Profile.current, ivs.(i).Profile.duration))

let check_no_pending t name =
  match t.pending with
  | No_move -> ()
  | _ -> invalid_arg ("Delta." ^ name ^ ": uncommitted pending move")

let[@inline] swap_entries a i j =
  let tmp = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- tmp

let try_swap t k =
  check_no_pending t "try_swap";
  if k < 0 || k + 1 >= t.n then
    invalid_arg "Delta.try_swap: position out of range";
  let probe = Probe.local () in
  probe.Probe.delta_swaps <- probe.Probe.delta_swaps + 1;
  if t.currents.(k) = t.currents.(k + 1) && t.durations.(k) = t.durations.(k + 1)
  then begin
    t.pending <- Keep;
    (sigma t, finish t)
  end
  else
  match t.inc with
  | None ->
      swap_entries t.currents k (k + 1);
      swap_entries t.durations k (k + 1);
      let sigma, finish = full_eval t in
      swap_entries t.currents k (k + 1);
      swap_entries t.durations k (k + 1);
      t.pending <- Full_swap { k; sigma; finish };
      (sigma, finish)
  | Some inc ->
      (* after the swap, position k holds old interval k+1 with tail
         tail_{k+1} + D_k, and position k+1 holds old interval k with
         tail tail_{k+1}; everything else — including every tail before
         k, whose suffix multiset is unchanged — keeps its stored
         value *)
      let tl_t = t.tail_t.(k + 1) and tl_c = t.tail_c.(k + 1) in
      let ntt, ntc = nadd tl_t tl_c t.durations.(k) in
      if not inc.Model.tail_sensitive then begin
        (* the two terms trade places; sigma and finish are unchanged *)
        t.pending <-
          Swap
            { k;
              tail_t = ntt;
              tail_c = ntc;
              term_lo = t.terms.(k + 1);
              term_hi = t.terms.(k);
              sig_t = t.sig_t;
              sig_c = t.sig_c };
        (sigma t, finish t)
      end
      else begin
        probe.Probe.delta_terms <- probe.Probe.delta_terms + 2;
        let term_lo =
          inc.Model.term ~current:t.currents.(k + 1)
            ~duration:t.durations.(k + 1) ~tail:(ntt +. ntc)
        in
        let term_hi =
          inc.Model.term ~current:t.currents.(k) ~duration:t.durations.(k)
            ~tail:(tl_t +. tl_c)
        in
        let st, sc = nadd t.sig_t t.sig_c (-.t.terms.(k)) in
        let st, sc = nadd st sc term_lo in
        let st, sc = nadd st sc (-.t.terms.(k + 1)) in
        let st, sc = nadd st sc term_hi in
        t.pending <-
          Swap { k; tail_t = ntt; tail_c = ntc; term_lo; term_hi;
                 sig_t = st; sig_c = sc };
        (st +. sc, finish t)
      end

let try_set t pos ~current ~duration =
  check_no_pending t "try_set";
  if pos < 0 || pos >= t.n then
    invalid_arg "Delta.try_set: position out of range";
  check_point current duration;
  let probe = Probe.local () in
  probe.Probe.delta_repoints <- probe.Probe.delta_repoints + 1;
  if current = t.currents.(pos) && duration = t.durations.(pos) then begin
    t.pending <- Keep;
    (sigma t, finish t)
  end
  else
  match t.inc with
  | None ->
      let old_c = t.currents.(pos) and old_d = t.durations.(pos) in
      t.currents.(pos) <- current;
      t.durations.(pos) <- duration;
      let sigma, finish = full_eval t in
      t.currents.(pos) <- old_c;
      t.durations.(pos) <- old_d;
      t.pending <- Full_set { pos; current; duration; sigma; finish };
      (sigma, finish)
  | Some inc ->
      (* candidate suffix sums for positions 0..pos-1: the chain from
         the unchanged tail at [pos] through the new duration *)
      let tt = ref t.tail_t.(pos) and tc = ref t.tail_c.(pos) in
      let a, b = nadd !tt !tc duration in
      tt := a;
      tc := b;
      for j = pos - 1 downto 0 do
        t.ctail_t.(j) <- !tt;
        t.ctail_c.(j) <- !tc;
        let a, b = nadd !tt !tc t.durations.(j) in
        tt := a;
        tc := b
      done;
      let fin_t = !tt and fin_c = !tc in
      let lo = if inc.Model.tail_sensitive then 0 else pos in
      probe.Probe.delta_terms <- probe.Probe.delta_terms + (pos + 1 - lo);
      t.cterm.(pos) <-
        inc.Model.term ~current ~duration
          ~tail:(t.tail_t.(pos) +. t.tail_c.(pos));
      if inc.Model.tail_sensitive then
        for j = 0 to pos - 1 do
          t.cterm.(j) <-
            inc.Model.term ~current:t.currents.(j) ~duration:t.durations.(j)
              ~tail:(t.ctail_t.(j) +. t.ctail_c.(j))
        done;
      let sig_t, sig_c =
        if inc.Model.tail_sensitive && 2 * (pos + 1) >= t.n then begin
          (* a fresh compensated sum over the candidate terms is cheaper
             than 2(pos+1) delta updates — and resets any drift *)
          let st = ref 0.0 and sc = ref 0.0 in
          for j = 0 to t.n - 1 do
            let v = if j <= pos then t.cterm.(j) else t.terms.(j) in
            let a, b = nadd !st !sc v in
            st := a;
            sc := b
          done;
          (!st, !sc)
        end
        else begin
          let st = ref t.sig_t and sc = ref t.sig_c in
          for j = lo to pos do
            let a, b = nadd !st !sc (-.t.terms.(j)) in
            let a, b = nadd a b t.cterm.(j) in
            st := a;
            sc := b
          done;
          (!st, !sc)
        end
      in
      t.pending <- Set { pos; current; duration; lo; sig_t; sig_c; fin_t; fin_c };
      (sig_t +. sig_c, fin_t +. fin_c)

let resum_every t = Stdlib.max 32 t.n

let commit t =
  let probe = Probe.local () in
  (match t.pending with
  | No_move -> invalid_arg "Delta.commit: no pending move"
  | Keep -> ()
  | Swap { k; tail_t; tail_c; term_lo; term_hi; sig_t; sig_c } ->
      swap_entries t.currents k (k + 1);
      swap_entries t.durations k (k + 1);
      t.tail_t.(k) <- tail_t;
      t.tail_c.(k) <- tail_c;
      t.terms.(k) <- term_lo;
      t.terms.(k + 1) <- term_hi;
      t.sig_t <- sig_t;
      t.sig_c <- sig_c
  | Set { pos; current; duration; lo; sig_t; sig_c; fin_t; fin_c } ->
      t.currents.(pos) <- current;
      t.durations.(pos) <- duration;
      Array.blit t.ctail_t 0 t.tail_t 0 pos;
      Array.blit t.ctail_c 0 t.tail_c 0 pos;
      Array.blit t.cterm lo t.terms lo (pos + 1 - lo);
      t.sig_t <- sig_t;
      t.sig_c <- sig_c;
      t.fin_t <- fin_t;
      t.fin_c <- fin_c
  | Full_swap { k; sigma; finish } ->
      swap_entries t.currents k (k + 1);
      swap_entries t.durations k (k + 1);
      t.sig_t <- sigma;
      t.sig_c <- 0.0;
      t.fin_t <- finish;
      t.fin_c <- 0.0
  | Full_set { pos; current; duration; sigma; finish } ->
      t.currents.(pos) <- current;
      t.durations.(pos) <- duration;
      t.sig_t <- sigma;
      t.sig_c <- 0.0;
      t.fin_t <- finish;
      t.fin_c <- 0.0);
  t.pending <- No_move;
  probe.Probe.delta_commits <- probe.Probe.delta_commits + 1;
  t.commits <- t.commits + 1;
  if t.commits >= resum_every t then begin
    (* batch size distribution: commits absorbed between full
       re-summations (the compensated-sum refresh cadence) *)
    if !Probe.observing then
      Probe.observe "delta/commit_batch" (float_of_int t.commits);
    resum t
  end

let discard t =
  (match t.pending with
  | No_move -> invalid_arg "Delta.discard: no pending move"
  | _ -> ());
  t.pending <- No_move;
  let probe = Probe.local () in
  probe.Probe.delta_discards <- probe.Probe.delta_discards + 1

let refresh t = resum t
