(** Machine-wide simulated filesystem.

    Stores SELF binaries, shared libraries, and application config files.
    Server workloads read their configuration from here during the
    initialization phase — the code DynaCut later removes. Also hosts the
    tmpfs directory the paper checkpoints into (§3.3). *)

type t = { files : (string, string) Hashtbl.t }

let create () = { files = Hashtbl.create 32 }
let add t path content = Hashtbl.replace t.files path content
let find t path = Hashtbl.find_opt t.files path
let exists t path = Hashtbl.mem t.files path
let remove t path = Hashtbl.remove t.files path

let list t = Hashtbl.fold (fun k _ acc -> k :: acc) t.files [] |> List.sort compare

(** Store / fetch a SELF binary. *)
let add_self t path (s : Self.t) = add t path (Self.to_bytes s)

let find_self t path =
  match find t path with
  | None -> None
  | Some c -> (
      try Some (Self.of_bytes c)
      with Self.Format_error _ | Bytesx.Truncated _ -> None)
