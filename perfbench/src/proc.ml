(* Child processes the benchmark starts: the mpsgen daemon and the
   one-off generator runs.  Every child is registered until it has
   been reaped, and [install] makes sure each one is killed and reaped
   on every way out of the benchmark — normal exit, an uncaught
   exception (which runs [at_exit]) and SIGINT/SIGTERM. *)

let live : int list ref = ref []
let ever : int list ref = ref []

(* The child's standard error goes to [log], and so does its standard
   output unless [stdout] is given. *)
let spawn ~log ?stdout prog args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin
          (Option.value stdout ~default:fd) fd)
  in
  live := pid :: !live;
  ever := pid :: !ever;
  pid

(* Like [spawn], with the child's standard output on a pipe whose read
   end is returned; its standard error still goes to [log]. *)
let spawn_piped ~log prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  match spawn ~log ~stdout:w prog args with
  | pid ->
    Unix.close w;
    (pid, r)
  | exception e ->
    Unix.close r;
    Unix.close w;
    raise e

(* Block until the child writes its first line on [fd], at most
   [timeout] seconds; the line, or [None] on end of file or timeout.
   Nothing is read past the newline. *)
let read_line_from ~timeout fd =
  let buf = Buffer.create 128 and byte = Bytes.create 1 in
  let t0 = Clock.now_ns () in
  let rec go () =
    let left = timeout -. Clock.seconds_since t0 in
    if left <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | [], _, _ -> None
      | _ -> (
        match Unix.read fd byte 0 1 with
        | 0 -> None
        | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents buf)
        | _ ->
          Buffer.add_bytes buf byte;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let rec waitpid_intr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_intr flags pid

let forget pid = live := List.filter (( <> ) pid) !live

(* Wait for the child to exit by itself; its exit status. *)
let wait pid =
  let _, status = waitpid_intr [] pid in
  forget pid;
  status

(* SIGTERM, a grace period, then SIGKILL; always reaps. *)
let terminate ?(grace = 2.0) pid =
  if List.mem pid !live then begin
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let t0 = Clock.now_ns () in
    let rec poll () =
      match waitpid_intr [ Unix.WNOHANG ] pid with
      | 0, _ ->
        if Clock.seconds_since t0 > grace then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid_intr [] pid)
        end
        else begin
          Unix.sleepf 0.002;
          poll ()
        end
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    poll ();
    forget pid
  end

let terminate_all () = List.iter (terminate ~grace:0.5) !live

(* No child this process ever started is still running or unreaped. *)
let none_alive () =
  !live = []
  && List.for_all
       (fun pid ->
         match Unix.kill pid 0 with
         | () -> false
         | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
         | exception Unix.Unix_error _ -> false)
       !ever

let installed = ref false

let install ~on_exit =
  if not !installed then begin
    installed := true;
    at_exit (fun () ->
        terminate_all ();
        on_exit ());
    let die signal code =
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun _ ->
             prerr_endline "perfbench: interrupted, stopping child processes";
             exit code))
    in
    die Sys.sigint 130;
    die Sys.sigterm 143
  end

(* Restrict this process and its threads to one CPU with util-linux
   taskset; false when that is not possible here. *)
let pin_self cpu =
  match
    spawn ~log:"/dev/null" "taskset"
      [ "-a"; "-p"; "-c"; string_of_int cpu; string_of_int (Unix.getpid ()) ]
  with
  | pid -> wait pid = Unix.WEXITED 0
  | exception Unix.Unix_error _ -> false

(* Peak resident set of a process, in KiB, from /proc. *)
let peak_rss_kb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
            | kb -> kb
            | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> scan ())
          | exception End_of_file -> 0
        in
        scan ())

(* Restart this process's peak RSS at its current RSS, through Linux's
   /proc/self/clear_refs; where that fails the peak keeps counting from
   the start. *)
let reset_peak_rss () =
  match open_out "/proc/self/clear_refs" with
  | exception Sys_error _ -> ()
  | oc -> (
    try
      output_string oc "5";
      close_out oc
    with Sys_error _ -> close_out_noerr oc)

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let rec mkdir_p path =
  if path <> "" && path <> "." && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
