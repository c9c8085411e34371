type incremental = {
  term : current:float -> duration:float -> tail:float -> float;
  tail_sensitive : bool;
}

type decay = {
  rates : float array;
  weights : current:float -> duration:float -> float array -> unit;
  charge : current:float -> duration:float -> float;
}

type batch = {
  batch_run :
    n:int ->
    currents:float array ->
    durations:float array ->
    tails:float array ->
    sigmas:float array ->
    lo:int ->
    hi:int ->
    unit;
}

type t = {
  name : string;
  sigma : Profile.t -> at:float -> float;
  incremental : incremental option;
  batch : batch option;
  decay : decay option;
}

let sigma_end m p = m.sigma p ~at:(Profile.length p)
