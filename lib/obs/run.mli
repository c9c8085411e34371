(** One run's telemetry scope, shared by every executable.

    [basched FILE], every [battsim] subcommand and [bench/main.exe]
    bracket their work with {!start} and {!finish}; the four telemetry
    flags are declared once, in {!term}.

    {2 Environment}

    {!start} applies [BATSCHED_LOG=debug|info|warn|error] (the log
    level).  [BATSCHED_STATS=1] (or [true]) implies [--stats], and
    [BATSCHED_METRICS] / [BATSCHED_LEDGER] stand in for an absent
    [--metrics] / [--ledger].  A set-but-empty variable reads as unset
    ({!env}), so [BATSCHED_LEDGER= cmd] cancels an outer-scope export
    instead of naming a directory [""].  [basched] resolves
    [BATSCHED_EVENTS] for its [--events] the same way.  The variables
    exist for cram tests and CI, where threading flags through
    harnesses is awkward.

    {2 Counters}

    {!start} zeroes {!Batsched_numeric.Probe}, so the report, the
    exposition and the manifest written by {!finish} count this run
    only — including on persistent pool workers, whose counts from
    before {!start} are dropped by the probe's generation stamp. *)

type opts = {
  stats : bool;            (** [--stats]: counter table and phase timing *)
  trace : string option;   (** [--trace FILE]: Chrome trace-event JSON *)
  metrics : string option; (** [--metrics FILE]: OpenMetrics exposition *)
  ledger : string option;  (** [--ledger DIR]: run manifest *)
}

val term : opts Cmdliner.Term.t
(** The four flags as one Cmdliner term. *)

val env : string -> string option
(** The environment variable's value, set-but-empty reading as
    [None]. *)

type t

val start : opts -> t
(** Apply [BATSCHED_LOG], resolve the environment fallbacks, create
    an active {!Sink} when stats or a trace is wanted, enable
    {!Histogram}s when stats or metrics are wanted, zero the probe
    counters and stamp the start time. *)

val sink : t -> Sink.t
(** The run's span sink ({!Sink.noop} unless stats or a trace is
    wanted). *)

val recording : t -> bool
(** Whether {!finish} will record a ledger manifest — so a caller
    without an event file can still capture a convergence curve in
    memory for it. *)

val finish :
  ?events:Events.t ->
  ?events_path:string ->
  ?instance:string ->
  ?model:string ->
  ?seed:int ->
  ?pool_size:int ->
  ?sigma:float ->
  ?makespan:float ->
  tool:string ->
  label:string ->
  knobs:(string * string) list ->
  t ->
  unit
(** Emit the run's outputs, always in this order on stdout:
    + the stats report (after a blank line);
    + the trace file, and its notice;
    + the notice for [events_path], the event stream the caller wrote;
    + the OpenMetrics file, and its notice;
    + the ledger manifest, and its notice.

    The manifest takes [tool], [label], [knobs] and the optional
    fields as given (strings default to [""], [seed] to [0] and
    [pool_size] to [1]), hashes [instance] when it names a readable
    file, measures the wall time from {!start}, and draws its
    convergence curve from [events]' records.  A failed ledger write
    warns on stderr as ["TOOL: [warn] ledger write failed: ..."] and
    does not fail the run. *)
