(** Live-basic-block accounting over execution phases (Figure 10):
    "live" = mapped, executable, not disabled; static debloaters are
    flat lines, DynaCut steps at each phase transition. *)

type phase = { ph_label : string; ph_time : float; ph_live : int }
type track = { tr_name : string; tr_total : int; tr_phases : phase list }

val make : name:string -> total:int -> phase list -> track

val flat : name:string -> total:int -> kept:int -> times:float list -> track
(** A static debloater's constant-live track. *)

val max_live_percent : track -> float
val pp : Format.formatter -> track list -> unit
