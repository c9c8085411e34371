let sigma p ~at =
  if at < 0.0 then invalid_arg "Ideal.sigma: negative time";
  Batsched_numeric.Kahan.sum
    (Profile.fold_until p ~at ~init:Batsched_numeric.Kahan.zero
       ~f:(fun acc ~start:_ ~duration ~current ->
         Batsched_numeric.Kahan.add acc (current *. duration)))

(* sigma is the plain charge integral: the per-interval term ignores how
   much load follows, so every local-search move is O(1) to re-cost. *)
let incremental =
  { Model.term = (fun ~current ~duration ~tail:_ -> current *. duration);
    tail_sensitive = false }

let batch =
  { Model.batch_run =
      (fun ~n ~currents ~durations ~tails:_ ~sigmas ~lo ~hi ->
        let acc = Batsched_numeric.Kahan.Acc.create () in
        for p = lo to hi - 1 do
          Batsched_numeric.Kahan.Acc.reset acc;
          let base = p * n in
          for k = 0 to n - 1 do
            Batsched_numeric.Kahan.Acc.add acc
              (currents.(base + k) *. durations.(base + k))
          done;
          sigmas.(p) <- Batsched_numeric.Kahan.Acc.sum acc
        done) }

(* no memory at all: the decay decomposition is the bare charge term *)
let decay =
  { Model.rates = [||];
    weights = (fun ~current:_ ~duration:_ _ -> ());
    charge = (fun ~current ~duration -> current *. duration) }

let model =
  { Model.name = "ideal"; sigma; incremental = Some incremental;
    batch = Some batch; decay = Some decay }
