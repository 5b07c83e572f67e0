(** rkv — the Redis stand-in: an in-memory key-value server with "a
    well-defined feature set" (paper §4), a command-table dispatcher, and
    deliberately vulnerable implementations of the commands behind the
    CVEs in Table 1:

    - [STRALGO] — unchecked LCS matrix indexing (CVE-2021-32625 /
      CVE-2021-29477, integer overflow): long inputs index far outside
      the DP matrix and crash the server;
    - [SETRANGE] — unchecked offset (CVE-2019-10192/10193, buffer
      overflow): writes past the 64-byte value corrupt the adjacent heap
      canary (or crash outright for huge offsets);
    - [CONFIG SET] — unchecked copy into a 16-byte parameter buffer
      (CVE-2016-8339): overflows into the admin token next to it.

    The exploits are *real* against the vanilla binary — benchmarks
    demonstrate the crash / corruption, then block the command with
    DynaCut and demonstrate "-ERR" + an intact canary. *)

open Dsl

let port = 6379
let ready_banner = "rkv: ready to accept connections"

(* store layout: 256 slots x (used 8B | key 32B | value 64B) *)
let nslots = 256
let slot_used = 0
let slot_key = 8
let slot_val = 40
let slot_size = 104

(* command ids *)
let c_get = 1
let c_set = 2
let c_del = 3
let c_exists = 4
let c_incr = 5
let c_append = 6
let c_setrange = 7
let c_stralgo = 8
let c_config = 9
let c_ping = 10
let c_echo = 11
let c_keys = 12
let c_flushall = 13
let c_info = 14

(* commands present in the binary but outside every workload mix — the
   unused feature surface a static debloater must gamble on *)
let c_ttl = 15
let c_expire = 16
let c_persist = 17
let c_type = 18
let c_rename = 19
let c_getrange = 20
let c_strlen = 21
let c_mget = 22
let c_randomkey = 23
let c_scan = 24
let c_auth = 25
let c_save = 26
let c_debug = 27
let c_getset = 28
let c_dbsize = 29

let command_names =
  [
    ("GET", c_get);
    ("SET", c_set);
    ("DEL", c_del);
    ("EXISTS", c_exists);
    ("INCR", c_incr);
    ("APPEND", c_append);
    ("SETRANGE", c_setrange);
    ("STRALGO", c_stralgo);
    ("CONFIG", c_config);
    ("PING", c_ping);
    ("ECHO", c_echo);
    ("KEYS", c_keys);
    ("FLUSHALL", c_flushall);
    ("INFO", c_info);
    ("TTL", c_ttl);
    ("EXPIRE", c_expire);
    ("PERSIST", c_persist);
    ("TYPE", c_type);
    ("RENAME", c_rename);
    ("GETRANGE", c_getrange);
    ("STRLEN", c_strlen);
    ("MGET", c_mget);
    ("RANDOMKEY", c_randomkey);
    ("SCAN", c_scan);
    ("AUTH", c_auth);
    ("SAVE", c_save);
    ("DEBUG", c_debug);
    ("GETSET", c_getset);
    ("DBSIZE", c_dbsize);
  ]

let globals () =
  [
    global_zero "rbuf" 512;
    global_zero "obuf" 512;
    global_zero "arg_cmd" 32;
    global_zero "arg_key" 64;
    global_zero "arg_val" 256;
    global_q "cfg_port" [ Int64.of_int port ];
    global_q "cfg_maxmemory" [ 0L ];
    global_q "cfg_appendonly" [ 0L ];
    global_zero "cfg_logfile" 32;
    global_zero "cfg_buf" 512;
    global_q "store_base" [ 0L ];
    global_q "nkeys" [ 0L ];
    global_q "requests" [ 0L ];
    (* the LCS DP matrix: 16x16 cells of 8 bytes; the canary and admin
       token sit right behind the vulnerable buffers, in declaration
       order, so overflows hit them *)
    global_zero "lcs_matrix" (16 * 16 * 8);
    global_zero "config_param" 16;
    global_bytes "admin_token" "secret-token\x00\x00\x00\x00";
    global_q "heap_canary" [ 0xC0FFEEL ];
  ]

(* ---------- init phase ---------- *)

let init_funcs () =
  [
    func "rkv_read_config" []
      [
        decl "fd" (call "open" [ s "/etc/rkv.conf" ]);
        when_ (v "fd" <: i 0) [ ret (neg (i 1)) ];
        decl "n" (call "read" [ v "fd"; addr "cfg_buf"; i 511 ]);
        store8 (addr "cfg_buf" +: v "n") (i 0);
        do_ "close" [ v "fd" ];
        decl "p" (addr "cfg_buf");
        while_ (load8 (v "p") <>: i 0)
          [
            when_
              (call "strncmp" [ v "p"; s "port "; i 5 ] ==: i 0)
              [ set "cfg_port" (call "atoi" [ v "p" +: i 5 ]) ];
            when_
              (call "strncmp" [ v "p"; s "maxmemory "; i 10 ] ==: i 0)
              [ set "cfg_maxmemory" (call "atoi" [ v "p" +: i 10 ]) ];
            when_
              (call "strncmp" [ v "p"; s "appendonly "; i 11 ] ==: i 0)
              [ set "cfg_appendonly" (call "atoi" [ v "p" +: i 11 ]) ];
            while_ ((load8 (v "p") <>: i 10) &&: (load8 (v "p") <>: i 0))
              [ set "p" (v "p" +: i 1) ];
            when_ (load8 (v "p") ==: i 10) [ set "p" (v "p" +: i 1) ];
          ];
        ret0;
      ];
    func "rkv_init_store" []
      [
        set "store_base" (call "mmap" [ i 0; i (nslots * slot_size + 4096); i 6 ]);
        decl "k" (i 0);
        while_ (v "k" <: i nslots)
          [
            store64 (v "store_base" +: (v "k" *: i slot_size)) (i 0);
            set "k" (v "k" +: i 1);
          ];
        ret (v "store_base");
      ];
    (* load the RDB-style snapshot: "key value" lines *)
    func "rkv_load_rdb" []
      [
        decl "fd" (call "open" [ s "/data/dump.rdb" ]);
        when_ (v "fd" <: i 0) [ ret (i 0) ];
        decl "n" (call "read" [ v "fd"; addr "cfg_buf"; i 511 ]);
        store8 (addr "cfg_buf" +: v "n") (i 0);
        do_ "close" [ v "fd" ];
        decl "p" (addr "cfg_buf");
        decl "loaded" (i 0);
        while_ (load8 (v "p") <>: i 0)
          [
            (* key into arg_key *)
            decl "k" (i 0);
            while_
              ((load8 (v "p") <>: i 32) &&: (load8 (v "p") <>: i 0)
              &&: (load8 (v "p") <>: i 10) &&: (v "k" <: i 31))
              [
                store8 (addr "arg_key" +: v "k") (load8 (v "p"));
                set "k" (v "k" +: i 1);
                set "p" (v "p" +: i 1);
              ];
            store8 (addr "arg_key" +: v "k") (i 0);
            when_ (load8 (v "p") ==: i 32) [ set "p" (v "p" +: i 1) ];
            (* value into arg_val *)
            decl "k2" (i 0);
            while_
              ((load8 (v "p") <>: i 10) &&: (load8 (v "p") <>: i 0) &&: (v "k2" <: i 63))
              [
                store8 (addr "arg_val" +: v "k2") (load8 (v "p"));
                set "k2" (v "k2" +: i 1);
                set "p" (v "p" +: i 1);
              ];
            store8 (addr "arg_val" +: v "k2") (i 0);
            when_ (v "k" >: i 0)
              [
                do_ "rkv_store_set" [ addr "arg_key"; addr "arg_val" ];
                set "loaded" (v "loaded" +: i 1);
              ];
            when_ (load8 (v "p") ==: i 10) [ set "p" (v "p" +: i 1) ];
          ];
        ret (v "loaded");
      ];
  ]

(* ---------- the store ---------- *)

let store_funcs () =
  [
    func "rkv_hash" [ "p" ]
      [
        decl "h" (i 5381);
        decl "c" (load8 (v "p"));
        while_ (v "c" <>: i 0)
          [
            set "h" (((v "h" <<: i 5) +: v "h") ^: v "c");
            set "p" (v "p" +: i 1);
            set "c" (load8 (v "p"));
          ];
        ret (v "h" &: i (nslots - 1));
      ];
    (* find slot for key; returns slot addr or 0 *)
    func "rkv_store_find" [ "key" ]
      [
        decl "h" (call "rkv_hash" [ v "key" ]);
        decl "probe" (i 0);
        while_ (v "probe" <: i nslots)
          [
            decl "slot" (v "store_base" +: (((v "h" +: v "probe") %: i nslots) *: i slot_size));
            when_ (load64 (v "slot") ==: i 0) [ ret (i 0) ];
            when_
              (call "strcmp" [ v "slot" +: i slot_key; v "key" ] ==: i 0)
              [ ret (v "slot") ];
            set "probe" (v "probe" +: i 1);
          ];
        ret (i 0);
      ];
    func "rkv_store_set" [ "key"; "value" ]
      [
        decl "slot" (call "rkv_store_find" [ v "key" ]);
        when_ (v "slot" ==: i 0)
          [
            decl "h" (call "rkv_hash" [ v "key" ]);
            decl "probe" (i 0);
            while_ ((v "probe" <: i nslots) &&: (v "slot" ==: i 0))
              [
                decl "cand"
                  (v "store_base" +: (((v "h" +: v "probe") %: i nslots) *: i slot_size));
                when_ (load64 (v "cand") ==: i 0) [ set "slot" (v "cand") ];
                set "probe" (v "probe" +: i 1);
              ];
            when_ (v "slot" ==: i 0) [ ret (neg (i 1)) ];
            store64 (v "slot") (i 1);
            do_ "strcpy" [ v "slot" +: i slot_key; v "key" ];
            set "nkeys" (v "nkeys" +: i 1);
          ];
        do_ "strcpy" [ v "slot" +: i slot_val; v "value" ];
        ret0;
      ];
    func "rkv_store_del" [ "key" ]
      [
        decl "slot" (call "rkv_store_find" [ v "key" ]);
        when_ (v "slot" ==: i 0) [ ret (i 0) ];
        store64 (v "slot") (i 2) (* tombstone: probing continues past it *);
        store8 (v "slot" +: i slot_key) (i 0);
        set "nkeys" (v "nkeys" -: i 1);
        ret (i 1);
      ];
  ]

(* ---------- request parsing and replies ---------- *)

let proto_funcs () =
  [
    (* tokenize rbuf into arg_cmd / arg_key / arg_val (rest of line) *)
    func "rkv_parse" []
      [
        decl "p" (addr "rbuf");
        decl "k" (i 0);
        while_
          ((load8 (v "p") <>: i 32) &&: (load8 (v "p") <>: i 10)
          &&: (load8 (v "p") <>: i 0) &&: (v "k" <: i 31))
          [
            store8 (addr "arg_cmd" +: v "k") (load8 (v "p"));
            set "k" (v "k" +: i 1);
            set "p" (v "p" +: i 1);
          ];
        store8 (addr "arg_cmd" +: v "k") (i 0);
        when_ (load8 (v "p") ==: i 32) [ set "p" (v "p" +: i 1) ];
        decl "k2" (i 0);
        while_
          ((load8 (v "p") <>: i 32) &&: (load8 (v "p") <>: i 10)
          &&: (load8 (v "p") <>: i 0) &&: (v "k2" <: i 63))
          [
            store8 (addr "arg_key" +: v "k2") (load8 (v "p"));
            set "k2" (v "k2" +: i 1);
            set "p" (v "p" +: i 1);
          ];
        store8 (addr "arg_key" +: v "k2") (i 0);
        when_ (load8 (v "p") ==: i 32) [ set "p" (v "p" +: i 1) ];
        decl "k3" (i 0);
        while_
          ((load8 (v "p") <>: i 10) &&: (load8 (v "p") <>: i 0) &&: (v "k3" <: i 255))
          [
            store8 (addr "arg_val" +: v "k3") (load8 (v "p"));
            set "k3" (v "k3" +: i 1);
            set "p" (v "p" +: i 1);
          ];
        store8 (addr "arg_val" +: v "k3") (i 0);
        ret0;
      ];
    (* the command table: name -> id *)
    func "rkv_lookup_command" []
      (List.map
         (fun (name, id) ->
           when_ (call "strcmp" [ addr "arg_cmd"; s name ] ==: i 0) [ ret (i id) ])
         command_names
      @ [ ret (i 0) ]);
    func "rkv_reply" [ "c"; "msg" ]
      [ ret (call "send" [ v "c"; v "msg"; call "strlen" [ v "msg" ] ]) ];
    func "rkv_reply_int" [ "c"; "n" ]
      [
        store8 (addr "obuf") (i 58 (* ':' *));
        decl "len" (call "itoa" [ addr "obuf" +: i 1; v "n" ]);
        ret (call "send" [ v "c"; addr "obuf"; v "len" +: i 1 ]);
      ];
  ]

(* ---------- commands ---------- *)

let command_funcs () =
  [
    func "rkv_cmd_get" [ "c" ]
      [
        decl "slot" (call "rkv_store_find" [ addr "arg_key" ]);
        when_ (v "slot" ==: i 0) [ ret (call "rkv_reply" [ v "c"; s "$-1" ]) ];
        store8 (addr "obuf") (i 36 (* '$' *));
        do_ "strcpy" [ addr "obuf" +: i 1; v "slot" +: i slot_val ];
        ret (call "rkv_reply" [ v "c"; addr "obuf" ]);
      ];
    func "rkv_cmd_set" [ "c" ]
      [
        label "rkv_feat_set";
        do_ "rkv_store_set" [ addr "arg_key"; addr "arg_val" ];
        ret (call "rkv_reply" [ v "c"; s "+OK" ]);
      ];
    func "rkv_cmd_del" [ "c" ]
      [ ret (call "rkv_reply_int" [ v "c"; call "rkv_store_del" [ addr "arg_key" ] ]) ];
    func "rkv_cmd_exists" [ "c" ]
      [
        decl "slot" (call "rkv_store_find" [ addr "arg_key" ]);
        ret (call "rkv_reply_int" [ v "c"; v "slot" <>: i 0 ]);
      ];
    func "rkv_cmd_incr" [ "c" ]
      [
        decl "slot" (call "rkv_store_find" [ addr "arg_key" ]);
        decl "n" (i 0);
        when_ (v "slot" <>: i 0) [ set "n" (call "atoi" [ v "slot" +: i slot_val ]) ];
        set "n" (v "n" +: i 1);
        do_ "itoa" [ addr "arg_val"; v "n" ];
        do_ "rkv_store_set" [ addr "arg_key"; addr "arg_val" ];
        ret (call "rkv_reply_int" [ v "c"; v "n" ]);
      ];
    func "rkv_cmd_append" [ "c" ]
      [
        decl "slot" (call "rkv_store_find" [ addr "arg_key" ]);
        when_ (v "slot" ==: i 0)
          [
            do_ "rkv_store_set" [ addr "arg_key"; addr "arg_val" ];
            ret (call "rkv_reply_int" [ v "c"; call "strlen" [ addr "arg_val" ] ]);
          ];
        decl "n" (call "strlen" [ v "slot" +: i slot_val ]);
        do_ "strcpy" [ v "slot" +: i slot_val +: v "n"; addr "arg_val" ];
        ret (call "rkv_reply_int" [ v "c"; call "strlen" [ v "slot" +: i slot_val ] ]);
      ];
    (* CVE-2019-10192/10193: SETRANGE key offset data — the offset is
       never bounds-checked against the 64-byte value buffer *)
    func "rkv_cmd_setrange" [ "c" ]
      [
        label "rkv_feat_setrange";
        decl "slot" (call "rkv_store_find" [ addr "arg_key" ]);
        when_ (v "slot" ==: i 0) [ ret (call "rkv_reply" [ v "c"; s "$-1" ]) ];
        (* arg_val = "<offset> <data>" *)
        decl "off" (call "atoi" [ addr "arg_val" ]);
        decl "sp" (call "strchr_idx" [ addr "arg_val"; i 32 ]);
        when_ (v "sp" <: i 0) [ ret (call "rkv_reply" [ v "c"; s "-ERR syntax" ]) ];
        decl "data" (addr "arg_val" +: v "sp" +: i 1);
        decl "k" (i 0);
        (* BUG: no check that off + strlen(data) <= 64 *)
        while_ (load8 (v "data" +: v "k") <>: i 0)
          [
            store8 (v "slot" +: i slot_val +: v "off" +: v "k") (load8 (v "data" +: v "k"));
            set "k" (v "k" +: i 1);
          ];
        ret (call "rkv_reply_int" [ v "c"; v "off" +: v "k" ]);
      ];
    (* CVE-2021-32625 / CVE-2021-29477: STRALGO a b computes an LCS in a
       16x16 matrix; lengths are truncated to int8-ish arithmetic that
       overflows, so long strings index far out of bounds *)
    func "rkv_cmd_stralgo" [ "c" ]
      [
        label "rkv_feat_stralgo";
        decl "a" (addr "arg_key");
        decl "b" (addr "arg_val");
        decl "la" (call "strlen" [ v "a" ]);
        decl "lb" (call "strlen" [ v "b" ]);
        (* BUG: the matrix is 16x16 but indices use the raw lengths *)
        decl "ia" (i 1);
        while_ (v "ia" <=: v "la")
          [
            decl "ib" (i 1);
            while_ (v "ib" <=: v "lb")
              [
                decl "cell" (addr "lcs_matrix" +: (((v "ia" *: i 16) +: v "ib") *: i 8));
                if_
                  (load8 (v "a" +: v "ia" -: i 1) ==: load8 (v "b" +: v "ib" -: i 1))
                  [
                    store64 (v "cell")
                      (load64
                         (addr "lcs_matrix"
                         +: ((((v "ia" -: i 1) *: i 16) +: (v "ib" -: i 1)) *: i 8))
                      +: i 1);
                  ]
                  [
                    decl "up"
                      (load64
                         (addr "lcs_matrix"
                         +: ((((v "ia" -: i 1) *: i 16) +: v "ib") *: i 8)));
                    decl "left"
                      (load64
                         (addr "lcs_matrix"
                         +: (((v "ia" *: i 16) +: (v "ib" -: i 1)) *: i 8)));
                    if_ (v "up" >: v "left")
                      [ store64 (v "cell") (v "up") ]
                      [ store64 (v "cell") (v "left") ];
                  ];
                set "ib" (v "ib" +: i 1);
              ];
            set "ia" (v "ia" +: i 1);
          ];
        ret
          (call "rkv_reply_int"
             [ v "c"; load64 (addr "lcs_matrix" +: (((v "la" *: i 16) +: v "lb") *: i 8)) ]);
      ];
    (* CVE-2016-8339: CONFIG SET param value copies the value into a
       16-byte buffer with no bound; the admin token lives next door *)
    func "rkv_cmd_config" [ "c" ]
      [
        label "rkv_feat_config";
        when_
          (call "strncmp" [ addr "arg_key"; s "SET"; i 3 ] ==: i 0)
          [
            decl "k" (i 0);
            (* BUG: copies up to 255 bytes into config_param[16] *)
            while_ (load8 (addr "arg_val" +: v "k") <>: i 0)
              [
                store8 (addr "config_param" +: v "k") (load8 (addr "arg_val" +: v "k"));
                set "k" (v "k" +: i 1);
              ];
            ret (call "rkv_reply" [ v "c"; s "+OK" ]);
          ];
        when_
          (call "strncmp" [ addr "arg_key"; s "GET"; i 3 ] ==: i 0)
          [
            store8 (addr "obuf") (i 36);
            do_ "strcpy" [ addr "obuf" +: i 1; addr "config_param" ];
            ret (call "rkv_reply" [ v "c"; addr "obuf" ]);
          ];
        ret (call "rkv_reply" [ v "c"; s "-ERR config" ]);
      ];
    func "rkv_cmd_keys" [ "c" ] [ ret (call "rkv_reply_int" [ v "c"; v "nkeys" ]) ];
    (* ---- the cold command set ---- *)
    func "rkv_cmd_ttl" [ "c" ]
      [
        decl "slot" (call "rkv_store_find" [ addr "arg_key" ]);
        when_ (v "slot" ==: i 0) [ ret (call "rkv_reply_int" [ v "c"; neg (i 2) ]) ];
        (* no per-key expiry metadata: -1 = no TTL, like Redis *)
        ret (call "rkv_reply_int" [ v "c"; neg (i 1) ]);
      ];
    func "rkv_cmd_expire" [ "c" ]
      [
        decl "slot" (call "rkv_store_find" [ addr "arg_key" ]);
        when_ (v "slot" ==: i 0) [ ret (call "rkv_reply_int" [ v "c"; i 0 ]) ];
        (* mark the slot with the deadline cycle *)
        store64 (v "slot") (call "gettime" [] +: call "atoi" [ addr "arg_val" ]);
        ret (call "rkv_reply_int" [ v "c"; i 1 ]);
      ];
    func "rkv_cmd_persist" [ "c" ]
      [
        decl "slot" (call "rkv_store_find" [ addr "arg_key" ]);
        when_ (v "slot" ==: i 0) [ ret (call "rkv_reply_int" [ v "c"; i 0 ]) ];
        store64 (v "slot") (i 1);
        ret (call "rkv_reply_int" [ v "c"; i 1 ]);
      ];
    func "rkv_cmd_type" [ "c" ]
      [
        decl "slot" (call "rkv_store_find" [ addr "arg_key" ]);
        when_ (v "slot" ==: i 0) [ ret (call "rkv_reply" [ v "c"; s "+none" ]) ];
        ret (call "rkv_reply" [ v "c"; s "+string" ]);
      ];
    func "rkv_cmd_rename" [ "c" ]
      [
        decl "slot" (call "rkv_store_find" [ addr "arg_key" ]);
        when_ (v "slot" ==: i 0) [ ret (call "rkv_reply" [ v "c"; s "-ERR no such key" ]) ];
        do_ "rkv_store_set" [ addr "arg_val"; v "slot" +: i slot_val ];
        do_ "rkv_store_del" [ addr "arg_key" ];
        ret (call "rkv_reply" [ v "c"; s "+OK" ]);
      ];
    func "rkv_cmd_getrange" [ "c" ]
      [
        decl "slot" (call "rkv_store_find" [ addr "arg_key" ]);
        when_ (v "slot" ==: i 0) [ ret (call "rkv_reply" [ v "c"; s "$-1" ]) ];
        decl "start" (call "atoi" [ addr "arg_val" ]);
        decl "len" (call "strlen" [ v "slot" +: i slot_val ]);
        when_ (v "start" >=: v "len") [ ret (call "rkv_reply" [ v "c"; s "$" ]) ];
        store8 (addr "obuf") (i 36);
        do_ "strcpy" [ addr "obuf" +: i 1; v "slot" +: i slot_val +: v "start" ];
        ret (call "rkv_reply" [ v "c"; addr "obuf" ]);
      ];
    func "rkv_cmd_strlen" [ "c" ]
      [
        decl "slot" (call "rkv_store_find" [ addr "arg_key" ]);
        when_ (v "slot" ==: i 0) [ ret (call "rkv_reply_int" [ v "c"; i 0 ]) ];
        ret (call "rkv_reply_int" [ v "c"; call "strlen" [ v "slot" +: i slot_val ] ]);
      ];
    func "rkv_cmd_mget" [ "c" ]
      [
        (* arg_key and arg_val name two keys *)
        decl "n" (i 0);
        decl "slot" (call "rkv_store_find" [ addr "arg_key" ]);
        do_ "strcpy" [ addr "obuf"; s "*" ];
        when_ (v "slot" <>: i 0)
          [
            set "n" (call "strlen" [ addr "obuf" ]);
            do_ "strcpy" [ addr "obuf" +: v "n"; v "slot" +: i slot_val ];
          ];
        decl "slot2" (call "rkv_store_find" [ addr "arg_val" ]);
        when_ (v "slot2" <>: i 0)
          [
            set "n" (call "strlen" [ addr "obuf" ]);
            store8 (addr "obuf" +: v "n") (i 32);
            do_ "strcpy" [ addr "obuf" +: v "n" +: i 1; v "slot2" +: i slot_val ];
          ];
        ret (call "rkv_reply" [ v "c"; addr "obuf" ]);
      ];
    func "rkv_cmd_randomkey" [ "c" ]
      [
        when_ (v "nkeys" ==: i 0) [ ret (call "rkv_reply" [ v "c"; s "$-1" ]) ];
        decl "start" (call "rand" [ i nslots ]);
        decl "k" (i 0);
        while_ (v "k" <: i nslots)
          [
            decl "slot"
              (v "store_base" +: (((v "start" +: v "k") %: i nslots) *: i slot_size));
            when_ (load64 (v "slot") ==: i 1)
              [
                store8 (addr "obuf") (i 36);
                do_ "strcpy" [ addr "obuf" +: i 1; v "slot" +: i slot_key ];
                ret (call "rkv_reply" [ v "c"; addr "obuf" ]);
              ];
            set "k" (v "k" +: i 1);
          ];
        ret (call "rkv_reply" [ v "c"; s "$-1" ]);
      ];
    func "rkv_cmd_scan" [ "c" ]
      [
        decl "cursor" (call "atoi" [ addr "arg_key" ]);
        decl "found" (i 0);
        decl "k" (v "cursor");
        while_ ((v "k" <: i nslots) &&: (v "found" <: i 4))
          [
            decl "slot" (v "store_base" +: (v "k" *: i slot_size));
            when_ (load64 (v "slot") ==: i 1) [ set "found" (v "found" +: i 1) ];
            set "k" (v "k" +: i 1);
          ];
        ret (call "rkv_reply_int" [ v "c"; v "k" %: i nslots ]);
      ];
    func "rkv_cmd_auth" [ "c" ]
      [
        if_
          (call "strcmp" [ addr "arg_key"; addr "admin_token" ] ==: i 0)
          [ ret (call "rkv_reply" [ v "c"; s "+OK" ]) ]
          [ ret (call "rkv_reply" [ v "c"; s "-ERR invalid password" ]) ];
      ];
    func "rkv_cmd_save" [ "c" ]
      [
        (* the fs is read-only: report the failure like a misconfigured
           redis would *)
        decl "written" (i 0);
        decl "k" (i 0);
        while_ (v "k" <: i nslots)
          [
            when_ (load64 (v "store_base" +: (v "k" *: i slot_size)) ==: i 1)
              [ set "written" (v "written" +: i 1) ];
            set "k" (v "k" +: i 1);
          ];
        expr (v "written");
        ret (call "rkv_reply" [ v "c"; s "-ERR read-only filesystem" ]);
      ];
    func "rkv_cmd_debug" [ "c" ]
      [
        when_
          (call "strcmp" [ addr "arg_key"; s "SLEEP" ] ==: i 0)
          [
            do_ "nanosleep" [ call "atoi" [ addr "arg_val" ] ];
            ret (call "rkv_reply" [ v "c"; s "+OK" ]);
          ];
        when_
          (call "strcmp" [ addr "arg_key"; s "SEGFAULT" ] ==: i 0)
          [ expr (load64 (i 0)); ret0 ];
        ret (call "rkv_reply" [ v "c"; s "-ERR unknown debug subcommand" ]);
      ];
    func "rkv_cmd_getset" [ "c" ]
      [
        decl "slot" (call "rkv_store_find" [ addr "arg_key" ]);
        if_ (v "slot" ==: i 0)
          [ do_ "rkv_reply" [ v "c"; s "$-1" ] ]
          [
            store8 (addr "obuf") (i 36);
            do_ "strcpy" [ addr "obuf" +: i 1; v "slot" +: i slot_val ];
            do_ "rkv_reply" [ v "c"; addr "obuf" ];
          ];
        do_ "rkv_store_set" [ addr "arg_key"; addr "arg_val" ];
        ret0;
      ];
    func "rkv_cmd_flushall" [ "c" ]
      [
        decl "k" (i 0);
        while_ (v "k" <: i nslots)
          [
            store64 (v "store_base" +: (v "k" *: i slot_size)) (i 0);
            set "k" (v "k" +: i 1);
          ];
        set "nkeys" (i 0);
        ret (call "rkv_reply" [ v "c"; s "+OK" ]);
      ];
    func "rkv_cmd_info" [ "c" ]
      [
        do_ "strcpy" [ addr "obuf"; s "keys=" ];
        decl "n" (call "strlen" [ addr "obuf" ]);
        set "n" (v "n" +: call "itoa" [ addr "obuf" +: v "n"; v "nkeys" ]);
        do_ "strcpy" [ addr "obuf" +: v "n"; s " canary=" ];
        set "n" (call "strlen" [ addr "obuf" ]);
        if_ (v "heap_canary" ==: i 0xC0FFEE)
          [ do_ "strcpy" [ addr "obuf" +: v "n"; s "ok" ] ]
          [ do_ "strcpy" [ addr "obuf" +: v "n"; s "CORRUPTED" ] ];
        ret (call "rkv_reply" [ v "c"; addr "obuf" ]);
      ];
  ]

let dispatch_funcs () =
  [
    (* the big switch-case dispatcher; default = exported error path *)
    func "rkv_dispatch" [ "c" ]
      [
        do_ "rkv_parse" [];
        decl "cmd" (call "rkv_lookup_command" []);
        set "requests" (v "requests" +: i 1);
        switch (v "cmd")
          [
            (c_get, [ do_ "rkv_cmd_get" [ v "c" ] ]);
            (c_set, [ do_ "rkv_cmd_set" [ v "c" ] ]);
            (c_del, [ do_ "rkv_cmd_del" [ v "c" ] ]);
            (c_exists, [ do_ "rkv_cmd_exists" [ v "c" ] ]);
            (c_incr, [ do_ "rkv_cmd_incr" [ v "c" ] ]);
            (c_append, [ do_ "rkv_cmd_append" [ v "c" ] ]);
            (c_setrange, [ do_ "rkv_cmd_setrange" [ v "c" ] ]);
            (c_stralgo, [ do_ "rkv_cmd_stralgo" [ v "c" ] ]);
            (c_config, [ do_ "rkv_cmd_config" [ v "c" ] ]);
            (c_ping, [ do_ "rkv_reply" [ v "c"; s "+PONG" ] ]);
            (c_echo, [ do_ "rkv_reply" [ v "c"; addr "arg_key" ] ]);
            (c_keys, [ do_ "rkv_cmd_keys" [ v "c" ] ]);
            (c_flushall, [ do_ "rkv_cmd_flushall" [ v "c" ] ]);
            (c_info, [ do_ "rkv_cmd_info" [ v "c" ] ]);
            (c_ttl, [ do_ "rkv_cmd_ttl" [ v "c" ] ]);
            (c_expire, [ do_ "rkv_cmd_expire" [ v "c" ] ]);
            (c_persist, [ do_ "rkv_cmd_persist" [ v "c" ] ]);
            (c_type, [ do_ "rkv_cmd_type" [ v "c" ] ]);
            (c_rename, [ do_ "rkv_cmd_rename" [ v "c" ] ]);
            (c_getrange, [ do_ "rkv_cmd_getrange" [ v "c" ] ]);
            (c_strlen, [ do_ "rkv_cmd_strlen" [ v "c" ] ]);
            (c_mget, [ do_ "rkv_cmd_mget" [ v "c" ] ]);
            (c_randomkey, [ do_ "rkv_cmd_randomkey" [ v "c" ] ]);
            (c_scan, [ do_ "rkv_cmd_scan" [ v "c" ] ]);
            (c_auth, [ do_ "rkv_cmd_auth" [ v "c" ] ]);
            (c_save, [ do_ "rkv_cmd_save" [ v "c" ] ]);
            (c_debug, [ do_ "rkv_cmd_debug" [ v "c" ] ]);
            (c_getset, [ do_ "rkv_cmd_getset" [ v "c" ] ]);
            (c_dbsize, [ do_ "rkv_cmd_keys" [ v "c" ] ]);
          ]
          ~default:
            [ label "rkv_err"; do_ "rkv_reply" [ v "c"; s "-ERR unknown command" ] ];
        ret0;
      ];
    func "rkv_serve_loop" [ "sfd" ]
      [
        forever
          [
            decl "c" (call "accept" [ v "sfd" ]);
            decl "n" (call "recv" [ v "c"; addr "rbuf"; i 511 ]);
            when_ (v "n" >: i 0)
              [
                store8 (addr "rbuf" +: v "n") (i 0);
                do_ "rkv_dispatch" [ v "c" ];
              ];
            do_ "close" [ v "c" ];
          ];
        ret0;
      ];
    func "main" []
      [
        do_ "rkv_read_config" [];
        do_ "rkv_init_store" [];
        decl "loaded" (call "rkv_load_rdb" []);
        do_ "log_kv" [ s "rkv: loaded keys "; v "loaded" ];
        decl "sfd" (call "socket" []);
        do_ "bind" [ v "sfd"; v "cfg_port" ];
        do_ "listen" [ v "sfd" ];
        do_ "puts" [ s ready_banner ];
        do_ "rkv_serve_loop" [ v "sfd" ];
        ret0;
      ];
  ]

let unit_rkv () =
  unit_ "rkv" ~globals:(globals ())
    (init_funcs () @ store_funcs () @ proto_funcs () @ command_funcs () @ dispatch_funcs ())

let config = "port 6379\nmaxmemory 1048576\nappendonly 0\n"
let rdb = "greeting hello\ncounter 41\ncolor blue\n"

(** The files rkv reads besides its binary: its config and its dump. *)
let files = [ ("/etc/rkv.conf", config); ("/data/dump.rdb", rdb) ]
