(* Two domains checksum the same words as their first action, released
   together, so the CRC tables are first used under contention; both
   must agree with the single-domain CRC and with the byte CRC of the
   words' serialized image.  A table built on first use (an OCaml
   [lazy]) raised [CamlinternalLazy.Undefined] here. *)

open Mps_core

let len = 1 lsl 14

let () =
  let words = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  for i = 0 to len - 1 do
    words.{i} <- (i * 0x9E3779B97F4A7C1) lxor (i lsl 40)
  done;
  let ready = Atomic.make 0 in
  let race () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    Persist.crc32_words words ~pos:0 ~len
  in
  let d1 = Domain.spawn race and d2 = Domain.spawn race in
  let a = Domain.join d1 and b = Domain.join d2 in
  let single = Persist.crc32_words words ~pos:0 ~len in
  let bytes = Buffer.create (8 * len) in
  for i = 0 to len - 1 do
    Buffer.add_int64_le bytes (Int64.of_int words.{i})
  done;
  let byte_crc = Persist.crc32 (Buffer.contents bytes) in
  if a <> single || b <> single || single <> byte_crc then begin
    Printf.eprintf "crc race: domains %08lx %08lx, single %08lx, bytes %08lx\n" a b single
      byte_crc;
    exit 1
  end;
  print_endline "crc race: both domains agree"
