(* The quadratic full-history endurance estimator.  A model without a
   decay-channel view takes [Periodic]'s own reference fallback, so the
   oracle is that fallback reached through the public entry point. *)

open Batsched_battery

let cycles_to_death ?max_cycles ~(model : Model.t) ~alpha ~period cycle =
  Periodic.cycles_to_death ?max_cycles
    ~model:{ model with Model.decay = None }
    ~alpha ~period cycle
