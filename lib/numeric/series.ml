let default_terms = 10

let check_beta beta =
  if not (beta > 0.0) then invalid_arg "Series: beta must be positive"

let check_terms terms =
  if terms <= 0 then invalid_arg "Series: terms must be positive"

(* Callers build time arguments as differences of interval endpoints;
   float cancellation can leave a few-ulp negative where the exact
   value is 0.  Absorb that noise instead of raising — anything beyond
   the tolerance is a real caller bug and still rejected. *)
let negative_tolerance = 1e-12

let[@inline] clamp_time t =
  if t >= 0.0 then t
  else if t >= -.negative_tolerance then 0.0
  else invalid_arg "Series.exp_sum: negative time"

let exp_sum ?(terms = default_terms) ~beta t =
  check_beta beta;
  check_terms terms;
  let t = clamp_time t in
  let b2 = beta *. beta in
  (* [Kahan.sum_fn] order and arithmetic, with no boxed term *)
  let acc = Kahan.Acc.create () in
  for i = 0 to terms - 1 do
    let m = float_of_int (i + 1) in
    let m2 = m *. m in
    Kahan.Acc.add acc (exp (-.b2 *. m2 *. t) /. (b2 *. m2))
  done;
  2.0 *. Kahan.Acc.sum acc

let kernel_direct ?(terms = default_terms) ~beta a b =
  check_beta beta;
  check_terms terms;
  if a < 0.0 || b < a then invalid_arg "Series.kernel: need 0 <= a <= b";
  let b2 = beta *. beta in
  let term i =
    let m = float_of_int (i + 1) in
    let m2 = m *. m in
    (exp (-.b2 *. m2 *. a) -. exp (-.b2 *. m2 *. b)) /. (b2 *. m2)
  in
  2.0 *. Kahan.sum_fn terms term

(* Memoized one-sided tails.  [kernel ~beta a b] telescopes as
   [F(a) - F(b)] over [F = exp_sum], so one memo table over F values
   shares endpoint evaluations: back-to-back profile intervals reuse
   each boundary twice, and the thousands of near-identical
   evaluations a window sweep makes hit the table directly.  The memo
   is an {!Fcache} keyed on (beta, terms-as-float, t) — a lookup hashes
   the raw float words, allocates nothing, and old entries expire half
   a table at a time instead of the former [Hashtbl.reset] cliff.  The
   table is domain-local (no locking, safe under [Pool] fan-out). *)
let cache : Fcache.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Fcache.create ~label:"series-f" ~arity:3 ())

let exp_sum_cached ?(terms = default_terms) ~beta t =
  check_beta beta;
  check_terms terms;
  let t = clamp_time t in
  let tbl = Domain.DLS.get cache in
  let terms_f = float_of_int terms in
  let probe = Probe.local () in
  let v = Fcache.find3 tbl beta terms_f t in
  if Float.is_nan v then begin
    probe.Probe.fmemo_misses <- probe.Probe.fmemo_misses + 1;
    let v = exp_sum ~terms ~beta t in
    Fcache.add3 tbl beta terms_f t ~value:v;
    v
  end
  else begin
    probe.Probe.fmemo_hits <- probe.Probe.fmemo_hits + 1;
    v
  end

let kernel ?(terms = default_terms) ~beta a b =
  check_beta beta;
  check_terms terms;
  if a < 0.0 || b < a then invalid_arg "Series.kernel: need 0 <= a <= b";
  if a = b then 0.0
  else
    (* F is strictly decreasing, so the difference is >= 0 up to
       rounding; clamp the few-ulp negatives away. *)
    Float.max 0.0
      (exp_sum_cached ~terms ~beta a -. exp_sum_cached ~terms ~beta b)

let kernel_limit ~beta =
  check_beta beta;
  Float.pi *. Float.pi /. (3.0 *. beta *. beta)
