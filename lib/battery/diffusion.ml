open Batsched_numeric

type params = {
  alpha : float;
  beta : float;
  nodes : int;
  dt : float;
}

let make_params ?(nodes = 64) ?(dt = 0.02) ~alpha ~beta () =
  if not (alpha > 0.0) then invalid_arg "Diffusion.make_params: alpha <= 0";
  if not (beta > 0.0) then invalid_arg "Diffusion.make_params: beta <= 0";
  if nodes < 8 then invalid_arg "Diffusion.make_params: nodes < 8";
  if not (dt > 0.0) then invalid_arg "Diffusion.make_params: dt <= 0";
  { alpha; beta; nodes; dt }

let default_params =
  make_params ~alpha:40375.0 ~beta:Rakhmatov.default_beta ()

(* Work arrays for the Crank–Nicolson sweeps, sized once per
   integration so the stepping loop allocates nothing. *)
type scratch = {
  v : float array;      (* explicit-half right-hand side *)
  diag : float array;
  lower : float array;
  upper : float array;
  cw : float array;     (* Thomas forward-sweep scratch *)
  dw : float array;
  out : float array;    (* solution before blitting back into u *)
}

let make_scratch n =
  { v = Array.make n 0.0;
    diag = Array.make n 0.0;
    lower = Array.make (n - 1) 0.0;
    upper = Array.make (n - 1) 0.0;
    cw = Array.make (Stdlib.max 1 (n - 1)) 0.0;
    dw = Array.make n 0.0;
    out = Array.make n 0.0 }

(* One Crank-Nicolson step of du/dt = D u_xx with flux I at x = 0 and a
   sealed wall at x = 1, over time step [dt].  [u] is updated in
   place; all intermediates live in [sc]. *)
let cn_step ~sc ~dee ~dx ~dt ~current u =
  let n = Array.length u in
  let r = dee /. (dx *. dx) in
  let half = 0.5 *. dt in
  (* explicit half: v = (I + dt/2 A) u + dt * s *)
  let v = sc.v in
  v.(0) <-
    u.(0) +. (half *. ((2.0 *. r *. u.(1)) -. (2.0 *. r *. u.(0))))
    -. (dt *. 2.0 *. current /. dx);
  for i = 1 to n - 2 do
    v.(i) <-
      u.(i)
      +. (half *. r *. (u.(i - 1) -. (2.0 *. u.(i)) +. u.(i + 1)))
  done;
  v.(n - 1) <-
    u.(n - 1)
    +. (half *. ((2.0 *. r *. u.(n - 2)) -. (2.0 *. r *. u.(n - 1))));
  (* implicit half: (I - dt/2 A) u' = v *)
  Array.fill sc.diag 0 n (1.0 +. (dt *. r));
  Array.fill sc.lower 0 (n - 1) (-.half *. r);
  Array.fill sc.upper 0 (n - 1) (-.half *. r);
  sc.upper.(0) <- -.dt *. r;
  sc.lower.(n - 2) <- -.dt *. r;
  Tridiag.solve_into ~lower:sc.lower ~diag:sc.diag ~upper:sc.upper ~rhs:v
    ~cw:sc.cw ~dw:sc.dw ~out:sc.out;
  Array.blit sc.out 0 u 0 n

(* Advance [u] across a span of constant current, splitting it into
   steps no longer than params.dt. *)
let advance ~params ~sc ~dee ~dx ~current u span =
  if span > 0.0 then begin
    let steps = Stdlib.max 1 (int_of_float (Float.ceil (span /. params.dt))) in
    let dt = span /. float_of_int steps in
    for _ = 1 to steps do
      cn_step ~sc ~dee ~dx ~dt ~current u
    done
  end

let surface ~params profile ~at =
  if at < 0.0 then invalid_arg "Diffusion: negative time";
  let n = params.nodes in
  let dx = 1.0 /. float_of_int (n - 1) in
  let dee = params.beta *. params.beta /. (Float.pi *. Float.pi) in
  let sc = make_scratch n in
  let u = Array.make n params.alpha in
  let clock = ref 0.0 in
  let run_to t ~current =
    let t = Float.min t at in
    if t > !clock then begin
      advance ~params ~sc ~dee ~dx ~current u (t -. !clock);
      clock := t
    end
  in
  List.iter
    (fun (iv : Profile.interval) ->
      run_to iv.Profile.start ~current:0.0;
      run_to (iv.Profile.start +. iv.Profile.duration) ~current:iv.Profile.current)
    (Profile.intervals profile);
  run_to at ~current:0.0;
  u.(0)

let surface_density ?(params = default_params) profile ~at =
  surface ~params profile ~at

let sigma ?(params = default_params) profile ~at =
  params.alpha -. surface ~params profile ~at

let model ?(params = default_params) () =
  { Model.name = "diffusion-pde"; sigma = (fun p ~at -> sigma ~params p ~at);
    (* a validation model: no fast kernels, so the delta evaluator,
       Sigma_batch and Periodic all take their generic fallbacks *)
    incremental = None;
    batch = None;
    decay = None }
