(** Per-process CPU time and peak memory, read from Linux [/proc]. *)

val cpu_ms_of_stat : string -> float option
(** User plus system CPU time, in milliseconds, from the text of a
    [/proc/<pid>/stat] file; [None] if the text is malformed. *)

val status_kb : string -> string -> int option
(** [status_kb text key] is the kB figure of the [key:] line of a
    [/proc/<pid>/status] text, e.g. [status_kb t "VmHWM"]. *)

val cpu_ms : int -> float option
(** {!cpu_ms_of_stat} of a live process; [None] once it is gone. *)

val peak_rss_kb : int -> int option
(** The process's resident-set high-water mark ([VmHWM]) in kB. *)
