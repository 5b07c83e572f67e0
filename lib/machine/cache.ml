(** Per-address-space block store: entry vaddr -> decoded block, plus the
    inverse page index that makes invalidation precise — eviction of a
    dirtied page touches exactly the blocks whose encodings overlap it,
    never the whole cache.

    A cache is pinned to one {!Proc.t} (one address space). Restore,
    respawn and fork all build a fresh process object, so the dispatcher
    detects staleness with one physical-equality check and starts cold —
    no block ever outlives the address space it was decoded from. *)

type t = {
  c_proc : Proc.t;  (** the address space the blocks were decoded from *)
  c_blocks : (int64, Block.t) Hashtbl.t;  (** entry vaddr -> live block *)
  c_by_page : (int64, Block.t list ref) Hashtbl.t;
      (** page index -> blocks whose encoding overlaps the page *)
}

let create (p : Proc.t) =
  { c_proc = p; c_blocks = Hashtbl.create 256; c_by_page = Hashtbl.create 64 }

let find c rip =
  match Hashtbl.find_opt c.c_blocks rip with
  | Some b as found when not b.Block.b_dead -> found
  | _ -> None

let insert c (b : Block.t) =
  Hashtbl.replace c.c_blocks b.Block.b_start b;
  Array.iter
    (fun idx ->
      match Hashtbl.find_opt c.c_by_page idx with
      | Some l -> l := b :: !l
      | None -> Hashtbl.replace c.c_by_page idx (ref [ b ]))
    b.Block.b_pages

let block_count c = Hashtbl.length c.c_blocks

(** Tombstone and unindex every block overlapping the page; returns how
    many died. A block spanning two pages is only counted once — the
    second page's list finds it already dead. *)
let evict_page c idx =
  match Hashtbl.find_opt c.c_by_page idx with
  | None -> 0
  | Some l ->
      let n = ref 0 in
      List.iter
        (fun (b : Block.t) ->
          if not b.Block.b_dead then begin
            b.Block.b_dead <- true;
            incr n;
            match Hashtbl.find_opt c.c_blocks b.Block.b_start with
            | Some cur when cur == b -> Hashtbl.remove c.c_blocks b.Block.b_start
            | _ -> ()
          end)
        !l;
      Hashtbl.remove c.c_by_page idx;
      !n
