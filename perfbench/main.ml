let () = exit (Perfbench.Cli.main Sys.argv)
