open Batsched_numeric

exception Unsustainable of float

type outcome = Dies of int | Censored of int

let cycles = function Dies n -> n | Censored n -> n

let default_max_cycles = 500

let check_inputs ~alpha ~period cycle =
  if not (alpha > 0.0) then invalid_arg "Periodic: alpha must be positive";
  if not (period > 0.0) then invalid_arg "Periodic: period must be positive";
  if Profile.length cycle > period +. 1e-9 then
    invalid_arg "Periodic: cycle longer than the period"

type device = {
  model : Model.t;
  alpha : float;
  period : float;
  cycle : Profile.t;
}

(* The peak of sigma inside a cycle occurs at one of its active-interval
   end points (sigma relaxes during idle), so death within cycle k is
   detected by probing those ends against the history built so far. *)

(* Reference path: materialize the growing full history and probe it
   with the model's own [sigma].  O(cycles^2) interval work — the
   fallback for models without a [decay] view (the diffusion PDE).
   The property tests reach it as the oracle for the channel kernel by
   stripping [decay] off an analytic model. *)
let reference_run ~max_cycles ~model ~alpha ~period cycle =
  let base =
    List.map
      (fun (iv : Profile.interval) ->
        (iv.Profile.start, iv.Profile.duration, iv.Profile.current))
      (Profile.intervals cycle)
  in
  let rec go k acc =
    if k >= max_cycles then (Censored max_cycles, Float.nan)
    else begin
      let offset = float_of_int k *. period in
      let shifted = List.map (fun (s, d, c) -> (s +. offset, d, c)) base in
      let profile = Profile.of_intervals (List.rev_append acc shifted) in
      let fatal =
        List.find_map
          (fun (s, d, _) ->
            let sg = model.Model.sigma profile ~at:(s +. d) in
            if sg >= alpha then Some sg else None)
          shifted
      in
      match fatal with
      | Some sg -> (Dies k, sg)
      | None -> go (k + 1) (List.rev_append shifted acc)
    end
  in
  go 0 []

module Batch = struct
  type result = { outcome : outcome; fatal_sigma : float }

  (* Per-device endurance state, compiled once at setup so the per-cycle
     sweep does constant work per device.

     [Channels] is the closed form for models with a [Model.decay]
     decomposition.  Write e_j for the end time of the cycle's j-th
     interval and lambda_t for the channel rates.  Sigma probed at the
     end of interval j of cycle k is

       sigma(k, j) = k*Q + base_j + sum_t b_{j,t} * g_t(k)

     where Q is the full-cycle charge, base_j bundles the current
     cycle's own contribution (prefix charge plus intra-cycle channel
     terms, both independent of k), b_{j,t} is the channel-t
     contribution of one complete cycle exactly one period in the past,
     and g_t(k) = sum_{d=0}^{k-1} rho_t^d with rho_t = e^{-lambda_t *
     period} telescopes the geometric decay of all k prior cycles.  The
     accumulator update g_t <- 1 + rho_t * g_t after each survived
     cycle is the whole per-cycle cost: O(probes * channels) flops and
     zero [exp]s.  Every exponent evaluated at setup is <= ~0 (the
     cycle fits in the period), so nothing can overflow. *)
  type channels_state = {
    nprobe : int;
    nterm : int;
    q : float;
    base : float array;  (* nprobe *)
    b : float array;     (* nprobe * nterm, row-major by probe *)
    rho : float array;   (* nterm *)
    g : float array;     (* nterm; mutable geometric accumulator *)
  }

  type compiled =
    | Channels of channels_state
    | Resolved  (* outcome computed at setup via the reference path *)

  let collect_intervals cycle =
    let n = Profile.num_intervals cycle in
    let starts = Array.make n 0.0 in
    let durations = Array.make n 0.0 in
    let currents = Array.make n 0.0 in
    for i = 0 to n - 1 do
      starts.(i) <- Profile.start cycle i;
      durations.(i) <- Profile.duration cycle i;
      currents.(i) <- Profile.current cycle i
    done;
    (starts, durations, currents)

  let compile_channels (dc : Model.decay) ~period ~starts ~durations ~currents
      =
    let e = Array.length starts in
    let t = Array.length dc.Model.rates in
    let ends = Array.init e (fun j -> starts.(j) +. durations.(j)) in
    let charges =
      Array.init e (fun i ->
          dc.Model.charge ~current:currents.(i) ~duration:durations.(i))
    in
    let w = Array.make (Stdlib.max 1 (e * t)) 0.0 in
    let buf = Array.make (Stdlib.max 1 t) 0.0 in
    for i = 0 to e - 1 do
      dc.Model.weights ~current:currents.(i) ~duration:durations.(i) buf;
      Array.blit buf 0 w (i * t) t
    done;
    let q = ref 0.0 in
    Array.iter (fun c -> q := !q +. c) charges;
    let base = Array.make (Stdlib.max 1 e) 0.0 in
    let b = Array.make (Stdlib.max 1 (e * t)) 0.0 in
    let prefix = ref 0.0 in
    for j = 0 to e - 1 do
      prefix := !prefix +. charges.(j);
      let a = ref 0.0 in
      for i = 0 to j do
        (* ends.(j) - ends.(i) >= 0 for i <= j: sorted, non-overlapping *)
        for tt = 0 to t - 1 do
          a :=
            !a
            +. w.((i * t) + tt)
               *. exp (-.dc.Model.rates.(tt) *. (ends.(j) -. ends.(i)))
        done
      done;
      base.(j) <- !prefix +. !a;
      for tt = 0 to t - 1 do
        let s = ref 0.0 in
        for i = 0 to e - 1 do
          (* period + e_j - e_i >= 0 up to the 1e-9 fit tolerance: the
             whole cycle sits within one period *)
          s :=
            !s
            +. w.((i * t) + tt)
               *. exp
                    (-.dc.Model.rates.(tt)
                    *. (period +. ends.(j) -. ends.(i)))
        done;
        b.((j * t) + tt) <- !s
      done
    done;
    let rho = Array.map (fun r -> exp (-.r *. period)) dc.Model.rates in
    Channels
      { nprobe = e;
        nterm = t;
        q = !q;
        base;
        b;
        rho;
        g = Array.make (Stdlib.max 1 t) 0.0 }

  (* One cycle of one device: probe every interval end, return the
     first fatal sigma (nan if it survives), advance the state only on
     survival (a dead device is never stepped again, so leaving its
     state mid-cycle is fine).  Loops, not a local closure and an
     option, so it inlines into the sweep and allocates nothing. *)
  let[@inline] step_channels d ~alpha ~k =
    let kf = float_of_int k in
    let fatal = ref Float.nan in
    let j = ref 0 in
    while !j < d.nprobe do
      let s = ref ((kf *. d.q) +. d.base.(!j)) in
      for tt = 0 to d.nterm - 1 do
        s := !s +. (d.b.((!j * d.nterm) + tt) *. d.g.(tt))
      done;
      if !s >= alpha then begin
        fatal := !s;
        j := d.nprobe
      end
      else incr j
    done;
    if Float.is_nan !fatal then
      for tt = 0 to d.nterm - 1 do
        d.g.(tt) <- 1.0 +. (d.rho.(tt) *. d.g.(tt))
      done;
    !fatal

  let run ?(max_cycles = default_max_cycles) ~n ~device () =
    if n < 0 then invalid_arg "Periodic.Batch.run: negative device count";
    let results =
      Array.make n { outcome = Censored max_cycles; fatal_sigma = Float.nan }
    in
    if n = 0 then results
    else begin
      let probe = Probe.local () in
      let compiled = Array.make n Resolved in
      let alphas = Array.make n 0.0 in
      let alive = Array.make n 0 in
      let nalive = ref 0 in
      for i = 0 to n - 1 do
        let dv = device i in
        check_inputs ~alpha:dv.alpha ~period:dv.period dv.cycle;
        alphas.(i) <- dv.alpha;
        match dv.model.Model.decay with
        | Some dc ->
            let starts, durations, currents = collect_intervals dv.cycle in
            compiled.(i) <-
              compile_channels dc ~period:dv.period ~starts ~durations
                ~currents;
            alive.(!nalive) <- i;
            incr nalive;
            Probe.bump_named probe "periodic/channel_devices" 1
        | None ->
            let outcome, fatal_sigma =
              reference_run ~max_cycles ~model:dv.model ~alpha:dv.alpha
                ~period:dv.period dv.cycle
            in
            results.(i) <- { outcome; fatal_sigma };
            Probe.bump_named probe "periodic/reference_devices" 1
      done;
      (* One sweep per cycle over the still-alive devices, compacting
         the index array in place as devices die, so total work is
         sum over devices of (cycles lived), not n * max_cycles. *)
      let k = ref 0 in
      while !nalive > 0 && !k < max_cycles do
        let kept = ref 0 in
        for a = 0 to !nalive - 1 do
          let i = alive.(a) in
          let fatal =
            match compiled.(i) with
            | Channels d -> step_channels d ~alpha:alphas.(i) ~k:!k
            | Resolved -> Float.nan (* never enters the alive set *)
          in
          if Float.is_nan fatal then begin
            alive.(!kept) <- i;
            incr kept
          end
          else results.(i) <- { outcome = Dies !k; fatal_sigma = fatal }
        done;
        nalive := !kept;
        incr k
      done;
      (* survivors keep their Censored initialization *)
      results
    end
end

let cycles_to_death ?max_cycles ~model ~alpha ~period cycle =
  let r =
    (Batch.run ?max_cycles ~n:1
       ~device:(fun _ -> { model; alpha; period; cycle })
       ()).(0)
  in
  match r.Batch.outcome with
  | Dies 0 -> raise (Unsustainable r.Batch.fatal_sigma)
  | outcome -> outcome

let max_sustainable_cycles ?max_cycles ~model ~alpha cycle ~period ~target =
  match cycles_to_death ?max_cycles ~model ~alpha ~period cycle with
  | outcome -> cycles outcome >= target
  | exception Unsustainable _ -> false

let min_period_for_cycles ?max_cycles ?(tolerance = 0.01) ~model ~alpha cycle
    ~target =
  if target < 1 then invalid_arg "Periodic.min_period_for_cycles: target < 1";
  let len = Float.max 1e-6 (Profile.length cycle) in
  let sustains period =
    max_sustainable_cycles ?max_cycles ~model ~alpha cycle ~period ~target
  in
  (* generous recovery horizon: beyond this, more rest changes nothing
     material for the shipped models *)
  let hi = len +. 2000.0 in
  if not (sustains hi) then None
  else if sustains len then Some len
  else begin
    let rec bisect lo hi =
      (* invariant: not (sustains lo) && sustains hi *)
      if hi -. lo <= tolerance then hi
      else begin
        let mid = 0.5 *. (lo +. hi) in
        if sustains mid then bisect lo mid else bisect mid hi
      end
    in
    Some (bisect len hi)
  end

let interp_cycles ~model ~alpha cycle ~periods =
  if List.length periods < 2 then
    invalid_arg "Periodic.interp_cycles: need at least two periods";
  Interp.of_points
    (List.map
       (fun period ->
         let n =
           match cycles_to_death ~model ~alpha ~period cycle with
           | outcome -> cycles outcome
           | exception Unsustainable _ -> 0
         in
         (period, float_of_int n))
       periods)
