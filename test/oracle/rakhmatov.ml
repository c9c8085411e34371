(* The seed Rakhmatov–Vrudhula evaluator: truncated profile copy,
   uncached term-by-term kernel.  Oracle for
   [Batsched_battery.Rakhmatov.sigma]. *)

open Batsched_numeric
open Batsched_battery

let sigma ?(terms = Series.default_terms) ?(beta = Rakhmatov.default_beta) p
    ~at =
  if at < 0.0 then invalid_arg "Rakhmatov.sigma: negative time";
  let clipped = Profile.truncate p ~at in
  let contribution (iv : Profile.interval) =
    let a = at -. iv.start -. iv.duration in
    let b = at -. iv.start in
    (* truncate guarantees a >= 0 up to float noise *)
    let a = Float.max 0.0 a in
    iv.current *. (iv.duration +. Series.kernel_direct ~terms ~beta a b)
  in
  Kahan.sum_list (List.map contribution (Profile.intervals clipped))
