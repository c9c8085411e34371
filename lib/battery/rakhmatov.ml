open Batsched_numeric

let default_beta = 0.273

(* The truncation is evaluated lazily during the walk over the
   profile's arrays (no profile copy), the kernel comes from the memoized
   [Series.exp_sum_cached] tails, and whole per-interval contributions
   are memoized in {e suffix-time coordinates}: the RV contribution of
   an interval depends only on its current [I], its duration [D] and the
   time [tail] between its end and the observation instant — not on
   where in absolute time it sits.  Keying the memo on
   [(beta, terms, I, D, tail)] instead of the former
   [(start, duration, current, at)] therefore lets candidate schedules
   of {e different total length} share entries: a local-search move that
   shifts the makespan leaves every suffix-aligned interval's key — and
   cached value — intact, where the old absolute-time key missed on all
   of them.  The memo is a domain-local [Fcache]: the five-float key is
   hashed on its raw words (no tuple allocation, no polymorphic hashing
   per lookup) and entries expire half a table at a time. *)
let contribution_cache : Fcache.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Fcache.create ~label:"rv-contrib" ~arity:5 ())

let[@inline] contribution ~terms ~beta ~current ~duration ~tail =
  let tbl = Domain.DLS.get contribution_cache in
  let terms_f = float_of_int terms in
  let probe = Probe.local () in
  let v = Fcache.find5 tbl beta terms_f current duration tail in
  if Float.is_nan v then begin
    probe.Probe.contrib_misses <- probe.Probe.contrib_misses + 1;
    let v =
      current *. (duration +. Series.kernel ~terms ~beta tail (tail +. duration))
    in
    Fcache.add5 tbl beta terms_f current duration tail ~value:v;
    v
  end
  else begin
    probe.Probe.contrib_hits <- probe.Probe.contrib_hits + 1;
    v
  end

let sigma ?(terms = Series.default_terms) ?(beta = default_beta) p ~at =
  if at < 0.0 then invalid_arg "Rakhmatov.sigma: negative time";
  let probe = Probe.local () in
  probe.Probe.sigma_evals <- probe.Probe.sigma_evals + 1;
  (* The load up to [at] as [Profile.fold_until] exposes it (stop at
     the first interval starting at or after [at], clip a straddling
     one), walked in place and summed in the same Neumaier order. *)
  let acc = Kahan.Acc.create () in
  let n = Profile.num_intervals p in
  let i = ref 0 in
  while !i < n && not (Profile.start p !i >= at) do
    let start = Profile.start p !i in
    let duration = Profile.duration p !i in
    let duration = if start +. duration <= at then duration else at -. start in
    let tail = Float.max 0.0 (at -. start -. duration) in
    Kahan.Acc.add acc
      (contribution ~terms ~beta ~current:(Profile.current p !i) ~duration ~tail);
    incr i
  done;
  Kahan.Acc.sum acc

(* The suffix-time decomposition packaged for the delta evaluator: at
   the makespan of a gapless profile, [tail] in the cache key above is
   exactly the sum of durations after the interval. *)
let incremental ~terms ~beta =
  { Model.term =
      (fun ~current ~duration ~tail ->
        contribution ~terms ~beta ~current ~duration ~tail);
    tail_sensitive = true }

(* Population kernel.  Per candidate, the RV sigma at the makespan is
     sum_k I_k (D_k + F(tail_k) - F(tail_k + D_k))
   over the truncated series F(t) = 2 sum_m e^{-beta^2 m^2 t}/(beta^2 m^2).
   The suffix points telescope: with tails built by plain backward adds,
   [tail_k +. D_k] is bit-equal to [tail_{k-1}], so a backward sweep
   carries F at the shared endpoint and pays exactly one fresh F
   evaluation per non-empty interval (n+1 total).  Each F evaluation
   costs a single [exp]: with x = e^{-beta^2 t}, the squares x^{m^2}
   follow the power recurrence x^{(m+1)^2} = x^{m^2} * x^{2m+1},
   x^{2m+3} = x^{2m+1} * x^2, against the [terms] exps the direct form
   pays.  The 2/(beta^2 m^2) coefficients are precomputed; loop carries
   live in a flat scratch array so the sweep allocates nothing per
   candidate. *)
let batch ~terms ~beta =
  let b2 = beta *. beta in
  let inv =
    Array.init terms (fun i ->
        let m = float_of_int (i + 1) in
        2.0 /. (b2 *. m *. m))
  in
  { Model.batch_run =
      (fun ~n ~currents ~durations ~tails ~sigmas ~lo ~hi ->
        let acc = Kahan.Acc.create () in
        (* scratch: 0 = F at the carried suffix point, 1 = running
           series sum, 2 = x^{m^2}, 3 = x^{2m+1} *)
        let sc = Array.make 4 0.0 in
        for p = lo to hi - 1 do
          Kahan.Acc.reset acc;
          let base = p * n in
          if n > 0 then begin
            (* F at the innermost suffix point (the last interval's
               tail; 0 when observed at the makespan). *)
            let x = exp (-.b2 *. tails.(base + n - 1)) in
            let xsq = x *. x in
            sc.(1) <- 0.0;
            sc.(2) <- x;
            sc.(3) <- xsq *. x;
            for m = 0 to terms - 1 do
              sc.(1) <- sc.(1) +. (inv.(m) *. sc.(2));
              sc.(2) <- sc.(2) *. sc.(3);
              sc.(3) <- sc.(3) *. xsq
            done;
            sc.(0) <- sc.(1);
            for k = n - 1 downto 0 do
              let i = currents.(base + k) and d = durations.(base + k) in
              if d <> 0.0 then begin
                (* F at the interval's start point tail_k + D_k, which
                   is the carried point of the next (earlier) step. *)
                let x = exp (-.b2 *. (tails.(base + k) +. d)) in
                let xsq = x *. x in
                sc.(1) <- 0.0;
                sc.(2) <- x;
                sc.(3) <- xsq *. x;
                for m = 0 to terms - 1 do
                  sc.(1) <- sc.(1) +. (inv.(m) *. sc.(2));
                  sc.(2) <- sc.(2) *. sc.(3);
                  sc.(3) <- sc.(3) *. xsq
                done;
                Kahan.Acc.add acc
                  (i *. (d +. Float.max 0.0 (sc.(0) -. sc.(1))));
                sc.(0) <- sc.(1)
              end
              (* d = 0: the endpoints coincide, the term is exactly 0
                 and the carried point is unchanged. *)
            done
          end;
          sigmas.(p) <- Kahan.Acc.sum acc
        done) }

(* Channel view of the same series: the contribution
     I (D + F(tail) - F(tail + D))
   with F(t) = sum_m 2 e^{-lambda_m t} / lambda_m, lambda_m = beta^2 m^2,
   regroups as
     I D + sum_m (2 / lambda_m) I (1 - e^{-lambda_m D}) e^{-lambda_m tail}
   — one decay channel per truncated series term, amplitudes depending
   on (I, D) only.  Exactly the structure {!Periodic} telescopes across
   repeated cycles. *)
let decay ~terms ~beta =
  let b2 = beta *. beta in
  let rates =
    Array.init terms (fun i ->
        let m = float_of_int (i + 1) in
        b2 *. m *. m)
  in
  { Model.rates;
    weights =
      (fun ~current ~duration buf ->
        for t = 0 to terms - 1 do
          buf.(t) <-
            2.0 /. rates.(t) *. current *. (1.0 -. exp (-.rates.(t) *. duration))
        done);
    charge = (fun ~current ~duration -> current *. duration) }

let model ?(terms = Series.default_terms) ?(beta = default_beta) () =
  { Model.name = "rakhmatov";
    sigma = (fun p ~at -> sigma ~terms ~beta p ~at);
    incremental = Some (incremental ~terms ~beta);
    batch = Some (batch ~terms ~beta);
    decay = Some (decay ~terms ~beta) }

let unavailable_charge ?terms ?beta p ~at =
  sigma ?terms ?beta p ~at -. Profile.total_charge (Profile.truncate p ~at)
