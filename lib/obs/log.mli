(** Leveled logging facade for library code.

    Library modules must never write to the terminal unconditionally;
    they log through this facade, which is {e quiet by default} — an
    embedding application (or [basched --verbose]) opts in by raising
    the level.  Messages are thunks, so a disabled level costs one
    atomic read and a comparison: no formatting, no allocation.

    Output goes to [stderr] by default; {!set_output} redirects it
    (used by tests, or to bridge into a host application's logger). *)

type level = Quiet | Error | Warn | Info | Debug

val set_level : level -> unit
(** Messages at severities above the set level are dropped.  [Quiet]
    (the default) drops everything. *)

val level : unit -> level
(** The current level. *)

val enabled : level -> bool
(** Whether a message at the given level would be emitted. *)

val of_string : string -> level option
(** Parse ["quiet"], ["error"], ["warn"], ["info"] or ["debug"]. *)

val set_output : (string -> unit) -> unit
(** Replace the line consumer (default: write to [stderr] and flush).
    The consumer receives complete, already-prefixed lines. *)

val init_from_env : unit -> unit
(** Apply [BATSCHED_LOG] (a level name) if set; warns on stderr for an
    unrecognized value.  {!Run.start} calls this, so cram tests and CI
    can raise the level without flags. *)

val err : (unit -> string) -> unit
val warn : (unit -> string) -> unit
val info : (unit -> string) -> unit

val debug : (unit -> string) -> unit
(** [debug (fun () -> ...)] — the thunk is only forced when the level
    admits the message. *)
